package core

import (
	"bufio"
	"io"
	"sync"
)

// Wire buffer sizing and pooling. Each migration direction is asymmetric: the
// source writes megabytes of frames and reads a handful of control messages,
// the destination mirrors that. The data direction gets a buffer sized to a
// whole batch (1 MiB of guest pages plus framing), so the source engine
// hands the transport one large write per batch instead of sixteen 64 KiB
// ones — on real sockets that means fewer syscalls and full-sized segments,
// on net.Pipe fewer goroutine handoffs. The control direction stays at
// 64 KiB. Both directions' buffers are pooled process-wide: a 1 MiB bufio
// allocation per migration would otherwise dominate the steady-state
// allocation profile the alloc-ceiling tests pin.

const (
	// dataBufBytes sizes the data-direction buffer: one full batch
	// (batchPages pages) plus per-page framing headroom.
	dataBufBytes = 1 << 20
	// ctlBufBytes sizes the control direction (hello exchange, acks, and the
	// announcement, which is streamed in chunks anyway).
	ctlBufBytes = 1 << 16
)

var (
	dataWriterPool = sync.Pool{New: func() interface{} {
		return bufio.NewWriterSize(nil, dataBufBytes)
	}}
	dataReaderPool = sync.Pool{New: func() interface{} {
		return bufio.NewReaderSize(nil, dataBufBytes)
	}}
	ctlWriterPool = sync.Pool{New: func() interface{} {
		return bufio.NewWriterSize(nil, ctlBufBytes)
	}}
	ctlReaderPool = sync.Pool{New: func() interface{} {
		return bufio.NewReaderSize(nil, ctlBufBytes)
	}}
)

// getDataWriter returns a pooled batch-sized writer wrapping w.
func getDataWriter(w io.Writer) *bufio.Writer {
	bw := dataWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// putDataWriter returns the writer to the pool, dropping its reference to
// the transport. Unflushed bytes are discarded — callers flush before every
// read that waits on the peer, so anything left is an aborted migration's
// tail.
func putDataWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	dataWriterPool.Put(bw)
}

// getDataReader returns a pooled batch-sized reader wrapping r.
func getDataReader(r io.Reader) *bufio.Reader {
	br := dataReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// putDataReader returns the reader to the pool, dropping buffered bytes and
// the transport reference.
func putDataReader(br *bufio.Reader) {
	br.Reset(nil)
	dataReaderPool.Put(br)
}

// getCtlWriter / putCtlWriter / getCtlReader / putCtlReader are the
// control-direction equivalents.
func getCtlWriter(w io.Writer) *bufio.Writer {
	bw := ctlWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func putCtlWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	ctlWriterPool.Put(bw)
}

func getCtlReader(r io.Reader) *bufio.Reader {
	br := ctlReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putCtlReader(br *bufio.Reader) {
	br.Reset(nil)
	ctlReaderPool.Put(br)
}
