package core

import (
	"errors"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjectedReset is returned by a FaultConn configured to reset the
// connection mid-stream.
var ErrInjectedReset = errors.New("core: injected connection reset")

// ErrInjectedTornWrite is returned by a FaultConn configured to tear a
// write: part of the buffer reaches the peer, then the connection dies.
var ErrInjectedTornWrite = errors.New("core: injected torn write")

// FaultConfig selects the faults a FaultConn injects. The zero value injects
// nothing (a transparent wrapper that still counts operations).
type FaultConfig struct {
	// ReadLatency delays every Read, simulating link RTT on the receive
	// path.
	ReadLatency time.Duration
	// WriteLatency delays every Write. Combined with a buffered protocol
	// writer this charges one latency unit per flush, which is how the
	// pipelining tests make round trips observable.
	WriteLatency time.Duration
	// MaxReadChunk caps the bytes returned by a single Read (short reads),
	// exercising the io.ReadFull paths. <= 0 leaves reads untouched.
	MaxReadChunk int
	// ResetAfterBytes fails the connection with ErrInjectedReset once that
	// many bytes have been written through it (a mid-stream RST). <= 0
	// disables.
	ResetAfterBytes int64
	// StallAfterBytes blocks writes once that many bytes have passed
	// (a peer that stops draining). The stall honors write deadlines set
	// via SetWriteDeadline/SetDeadline and releases on Close, so a
	// DeadlineConn wrapped around the FaultConn still times the stall out.
	// <= 0 disables.
	StallAfterBytes int64
	// TornWriteAfterBytes tears the stream at that byte offset: the write
	// crossing the threshold delivers only the bytes up to it, then fails
	// with ErrInjectedTornWrite, and every later write fails outright —
	// the disk-side torn-write fault's transport sibling. The peer sees a
	// prefix of a frame followed by EOF-ish garbage, exercising the
	// receive path's partial-frame handling. <= 0 disables.
	TornWriteAfterBytes int64
}

// FaultConn wraps a connection and injects the configured transport faults.
// It forwards deadlines to the underlying connection when supported and
// counts the bytes it accepted.
type FaultConn struct {
	conn io.ReadWriter
	cfg  FaultConfig

	written atomic.Int64

	mu       sync.Mutex
	wdl      time.Time
	dlNotify chan struct{}

	closeOnce sync.Once
	closed    chan struct{}
}

// NewFaultConn wraps conn with the given fault configuration.
func NewFaultConn(conn io.ReadWriter, cfg FaultConfig) *FaultConn {
	return &FaultConn{
		conn:     conn,
		cfg:      cfg,
		dlNotify: make(chan struct{}),
		closed:   make(chan struct{}),
	}
}

// BytesWritten reports the bytes accepted by Write so far.
func (f *FaultConn) BytesWritten() int64 { return f.written.Load() }

func (f *FaultConn) Read(p []byte) (int, error) {
	if err := f.sleep(f.cfg.ReadLatency); err != nil {
		return 0, err
	}
	if f.cfg.MaxReadChunk > 0 && len(p) > f.cfg.MaxReadChunk {
		p = p[:f.cfg.MaxReadChunk]
	}
	return f.conn.Read(p)
}

func (f *FaultConn) Write(p []byte) (int, error) {
	if err := f.sleep(f.cfg.WriteLatency); err != nil {
		return 0, err
	}
	seen := f.written.Load()
	if f.cfg.ResetAfterBytes > 0 && seen >= f.cfg.ResetAfterBytes {
		return 0, ErrInjectedReset
	}
	if f.cfg.TornWriteAfterBytes > 0 {
		if seen >= f.cfg.TornWriteAfterBytes {
			return 0, ErrInjectedTornWrite
		}
		if remain := f.cfg.TornWriteAfterBytes - seen; int64(len(p)) > remain {
			n, err := f.conn.Write(p[:remain])
			f.written.Add(int64(n))
			if err != nil {
				return n, err
			}
			return n, ErrInjectedTornWrite
		}
	}
	if f.cfg.StallAfterBytes > 0 {
		if seen >= f.cfg.StallAfterBytes {
			return 0, f.stall()
		}
		if remain := f.cfg.StallAfterBytes - seen; int64(len(p)) > remain {
			// Deliver the bytes up to the stall point, then wedge.
			n, err := f.conn.Write(p[:remain])
			f.written.Add(int64(n))
			if err != nil {
				return n, err
			}
			return n, f.stall()
		}
	}
	if f.cfg.ResetAfterBytes > 0 {
		if remain := f.cfg.ResetAfterBytes - seen; int64(len(p)) > remain {
			n, err := f.conn.Write(p[:remain])
			f.written.Add(int64(n))
			if err != nil {
				return n, err
			}
			return n, ErrInjectedReset
		}
	}
	n, err := f.conn.Write(p)
	f.written.Add(int64(n))
	return n, err
}

// stall blocks until the connection is closed or the write deadline passes.
func (f *FaultConn) stall() error {
	for {
		f.mu.Lock()
		wdl, notify := f.wdl, f.dlNotify
		f.mu.Unlock()
		var timeout <-chan time.Time
		if !wdl.IsZero() {
			d := time.Until(wdl)
			if d <= 0 {
				return os.ErrDeadlineExceeded
			}
			timer := time.NewTimer(d)
			defer timer.Stop()
			timeout = timer.C
		}
		select {
		case <-f.closed:
			return io.ErrClosedPipe
		case <-timeout:
			return os.ErrDeadlineExceeded
		case <-notify: // deadline changed, re-evaluate
		}
	}
}

// sleep waits for d, aborting early when the connection closes.
func (f *FaultConn) sleep(d time.Duration) error {
	if d <= 0 {
		select {
		case <-f.closed:
			return io.ErrClosedPipe
		default:
			return nil
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-f.closed:
		return io.ErrClosedPipe
	case <-timer.C:
		return nil
	}
}

// SetReadDeadline forwards to the underlying connection when supported.
func (f *FaultConn) SetReadDeadline(t time.Time) error {
	if dl, ok := f.conn.(deadlineSetter); ok {
		return dl.SetReadDeadline(t)
	}
	return nil
}

// SetWriteDeadline records the deadline for stall release and forwards it.
func (f *FaultConn) SetWriteDeadline(t time.Time) error {
	f.mu.Lock()
	f.wdl = t
	close(f.dlNotify)
	f.dlNotify = make(chan struct{})
	f.mu.Unlock()
	if dl, ok := f.conn.(deadlineSetter); ok {
		return dl.SetWriteDeadline(t)
	}
	return nil
}

// SetDeadline sets both read and write deadlines.
func (f *FaultConn) SetDeadline(t time.Time) error {
	if err := f.SetReadDeadline(t); err != nil {
		return err
	}
	return f.SetWriteDeadline(t)
}

// Close releases any stalled writer and closes the underlying connection
// when it supports closing.
func (f *FaultConn) Close() error {
	f.closeOnce.Do(func() { close(f.closed) })
	if cl, ok := f.conn.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}
