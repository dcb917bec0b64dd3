package checkpoint

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// restoreFanout caps the goroutines one checkpoint's pages are read with. A
// checkpoint's frames scatter over more segments with every churned hop (a
// 256 MiB guest decays from 256 one-MiB runs to tens of thousands of short
// ones within a dozen legs), so coalescing reads alone stops helping; the
// fan-out is what keeps the reads and installs off one goroutine.
const restoreFanout = 4

// restoreSpanPages is the unit a restore goroutine works in: 256 frames, a
// 1 MiB buffer, one install (one acquisition of the guest's lock) — and the
// unit a merge waits on when the install runs in the background.
const restoreSpanPages = 256

// restoreBufPool recycles the span buffers across restores; unpooled they
// dominated a recycled migration's allocations.
var restoreBufPool = sync.Pool{New: func() interface{} {
	return make([]byte, restoreSpanPages*vm.PageSize)
}}

// spanLoad is one pass over a checkpoint's frames: up to restoreFanout
// goroutines claim ascending restoreSpanPages spans off one cursor, fill each
// — payloads that sit back to back in one segment with a single ReadAt — and
// install it whole. Normally sums are the entry's store keys: dst, when
// non-nil, receives every span together with them, so the guest's digest
// table is seeded with exactly the sums this checkpoint serves the merge from.
// With rescan set (Store.Restore under another algorithm) each page is
// digested under it into sums[i] instead, and dst receives the bytes alone:
// the digest table holds checksum.Default digests only.
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
	readers := max(1, min(restoreFanout, spans))
	l.running.Store(int64(readers))
	for r := 0; r < readers; r++ {
		go l.read()
	}
	return l
}

// read is one reader goroutine: claim the next span, load it, repeat until
// the spans run out, a read fails, or the load is cancelled.
func (l *spanLoad) read() {
	buf := restoreBufPool.Get().([]byte)
	defer func() {
		restoreBufPool.Put(buf) //nolint:staticcheck // SA6002: 1 MiB slice, header alloc is fine
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
	refs := l.refs
	i := k * restoreSpanPages
	j := min(i+restoreSpanPages, len(refs))
	span := buf[:(j-i)*vm.PageSize]
	for p := i; p < j; {
		q := p + 1
		for q < j && refs[q].f == refs[p].f && refs[q].off == refs[q-1].off+vm.PageSize {
			q++
		}
		n, err := refs[p].f.ReadAt(span[(p-i)*vm.PageSize:(q-i)*vm.PageSize], refs[p].off)
		if err != nil {
			return fmt.Errorf("checkpoint: read page %d: %w", p+n/vm.PageSize, err)
		}
		p = q
	}
	switch {
	case l.rescan != 0:
		for p := i; p < j; p++ {
			l.sums[p] = l.rescan.Page(span[(p-i)*vm.PageSize : (p-i+1)*vm.PageSize])
		}
		if l.dst != nil {
			l.dst.InstallRange(i, span)
		}
	case l.dst != nil:
		l.dst.InstallRangeSums(i, span, l.sums[i:j])
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
