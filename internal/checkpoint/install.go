package checkpoint

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// restoreFanout caps the goroutines one checkpoint's pages are read with. A
// checkpoint's frames scatter over more segments with every churned hop (a
// 256 MiB guest decays from 256 one-MiB runs to tens of thousands of short
// ones within a dozen legs), so coalescing reads alone stops helping; the
// fan-out is what keeps the reads and installs off one goroutine. It never
// exceeds GOMAXPROCS: the readers fill the guest without its lock, so nothing
// else paces them, and a reader beyond the CPUs the process may use only takes
// one from the merge and the source sharing the host (on 2 CPUs, 4 readers
// made the returns of the recycle-cycle benchmark 1–5 % slower than 2).
const restoreFanout = 4

// restoreSpanPages is the unit a restore goroutine works in: 256 frames (one
// chunk of guest memory), one install — and the unit a merge waits on when the
// install runs in the background.
const restoreSpanPages = 256

// restoreBufPool recycles span buffers across restores (the rescan path),
// integrity scans and compactions; unpooled they dominated the rescan's
// allocations.
var restoreBufPool = sync.Pool{New: func() interface{} {
	return make([]byte, restoreSpanPages*vm.PageSize)
}}

// spanLoad is one pass over a checkpoint's frames: up to restoreFanout
// goroutines claim ascending restoreSpanPages spans off one cursor and read
// each — payloads that sit back to back in one segment with a single ReadAt.
// Normally sums are the entry's store keys, and the reads go straight into
// dst's memory (vm.VM.InstallRangeFrom), which records the keys as the span's
// digests once it is read: each page is copied once, and the guest's digest
// table is seeded with exactly the sums this checkpoint serves the merge from.
// With rescan set (Store.Restore under another algorithm) a span is read into
// a pooled buffer and each page digested under it into sums[i] instead, and
// dst, when non-nil, receives the bytes alone: the digest table holds
// checksum.Default digests only. A load without rescan needs a dst: reading
// the pages would be its only effect.
//
// It serves both ways of restoring. The eager one (Store.Restore) starts it
// and drains it. The background one (Checkpoint.InstallInto) starts it and
// lets the merge await the spans a wire frame touches, so the reads hide under
// round one.
type spanLoad struct {
	ctx    context.Context
	cancel context.CancelFunc // stops the readers: the caller's ctx, a failed read, Checkpoint.Close
	refs   []pageRef
	sums   []checksum.Sum
	rescan checksum.Algorithm // zero: sums are the store keys
	dst    *vm.VM

	next    atomic.Int64    // span cursor
	left    atomic.Int64    // spans not finished yet; zero is await's fast path
	running atomic.Int64    // reader goroutines still alive
	done    []chan struct{} // per span, closed once it is installed
	exited  chan struct{}   // closed when the last reader returns

	mu  sync.Mutex
	err error // first read failure
}

func startSpanLoad(ctx context.Context, refs []pageRef, sums []checksum.Sum, rescan checksum.Algorithm, dst *vm.VM) *spanLoad {
	spans := (len(refs) + restoreSpanPages - 1) / restoreSpanPages
	l := &spanLoad{refs: refs, sums: sums, rescan: rescan, dst: dst,
		done: make([]chan struct{}, spans), exited: make(chan struct{})}
	l.ctx, l.cancel = context.WithCancel(ctx)
	for k := range l.done {
		l.done[k] = make(chan struct{})
	}
	l.left.Store(int64(spans))
	readers := max(1, min(restoreFanout, runtime.GOMAXPROCS(0), spans))
	l.running.Store(int64(readers))
	for r := 0; r < readers; r++ {
		go l.read()
	}
	return l
}

// read is one reader goroutine: claim the next span, load it, repeat until
// the spans run out, a read fails, or the load is cancelled.
func (l *spanLoad) read() {
	var buf []byte
	if l.rescan != 0 {
		buf = restoreBufPool.Get().([]byte)
	}
	defer func() {
		if buf != nil {
			restoreBufPool.Put(buf) //nolint:staticcheck // SA6002: 1 MiB slice, header alloc is fine
		}
		if l.running.Add(-1) == 0 {
			l.cancel() // nothing left to stop; releases the context
			close(l.exited)
		}
	}()
	for l.ctx.Err() == nil {
		k := int(l.next.Add(1)) - 1
		if k >= len(l.done) {
			return
		}
		if err := l.loadSpan(k, buf); err != nil {
			l.mu.Lock()
			if l.err == nil {
				l.err = err
			}
			l.mu.Unlock()
			l.cancel() // the other readers finish their span and quit
			return
		}
		close(l.done[k])
		l.left.Add(-1)
	}
}

func (l *spanLoad) loadSpan(k int, buf []byte) error {
	i := k * restoreSpanPages
	j := min(i+restoreSpanPages, len(l.refs))
	if l.rescan == 0 {
		return l.dst.InstallRangeFrom(i, l.sums[i:j], func(first int, dst []byte) error {
			return readPages(l.refs, first, dst)
		})
	}
	span := buf[:(j-i)*vm.PageSize]
	if err := readPages(l.refs, i, span); err != nil {
		return err
	}
	for p := i; p < j; p++ {
		l.sums[p] = l.rescan.Page(span[(p-i)*vm.PageSize : (p-i+1)*vm.PageSize])
	}
	if l.dst != nil {
		l.dst.InstallRange(i, span)
	}
	return nil
}

// readPages fills dst with the payloads of refs[first:], one ReadAt per run
// of payloads that sit back to back in one segment. It is the store's one
// payload reader: the install's spans, the integrity scans and GC compaction
// all read through it, and ReadBlock reads single blocks.
func readPages(refs []pageRef, first int, dst []byte) error {
	refs = refs[first : first+len(dst)/vm.PageSize]
	for p := 0; p < len(refs); {
		q := p + 1
		for q < len(refs) && refs[q].f == refs[p].f && refs[q].off == refs[q-1].off+vm.PageSize {
			q++
		}
		n, err := refs[p].f.ReadAt(dst[p*vm.PageSize:q*vm.PageSize], refs[p].off)
		if err != nil {
			return fmt.Errorf("checkpoint: read page %d: %w", first+p+n/vm.PageSize, err)
		}
		p = q
	}
	return nil
}

// scanPages reads the payloads refs locate through readPages, in spans of up
// to restoreSpanPages pages, and hands each page to fn in order. The page is
// valid only during the call.
func scanPages(refs []pageRef, fn func(i int, page []byte) error) error {
	buf := restoreBufPool.Get().([]byte)
	defer restoreBufPool.Put(buf) //nolint:staticcheck // SA6002: 1 MiB slice, header alloc is fine
	for first := 0; first < len(refs); first += restoreSpanPages {
		span := buf[:(min(first+restoreSpanPages, len(refs))-first)*vm.PageSize]
		if err := readPages(refs, first, span); err != nil {
			return err
		}
		for p := 0; p*vm.PageSize < len(span); p++ {
			if err := fn(first+p, span[p*vm.PageSize:(p+1)*vm.PageSize]); err != nil {
				return err
			}
		}
	}
	return nil
}

// await blocks until every span touching frames [start, start+count) is
// installed, or the readers have all returned without getting there.
func (l *spanLoad) await(start, count int) error {
	if l.left.Load() == 0 || count <= 0 {
		return nil
	}
	for k := start / restoreSpanPages; k <= (start+count-1)/restoreSpanPages && k < len(l.done); k++ {
		select {
		case <-l.done[k]:
		case <-l.exited:
			select {
			case <-l.done[k]: // both were ready
			default:
				return l.failure()
			}
		}
	}
	return nil
}

// drain waits for the readers to return; nil when every span was loaded.
func (l *spanLoad) drain() error {
	<-l.exited
	if l.left.Load() == 0 {
		return nil
	}
	return l.failure()
}

// failure says why the load stopped short: the first failed read, else the
// cancellation. Called after exited is closed.
func (l *spanLoad) failure() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	return l.ctx.Err()
}

// loadPages is the eager pass: start the span load and wait for all of it.
func loadPages(refs []pageRef, sums []checksum.Sum, rescan checksum.Algorithm, dst *vm.VM) error {
	return startSpanLoad(context.Background(), refs, sums, rescan, dst).drain()
}
