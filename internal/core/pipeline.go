package core

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// The source half of the pipelined migration engine (§3.4): page
// sequencing, page reads + checksum + compression + delta encoding, and
// wire emission run as concurrent stages connected by bounded queues, so
// batch N+1 is being hashed and compressed while batch N is on the wire.
// The checksum rate — not the network — bounds fast-link migrations (MD5
// at ~350 MiB/s vs 10/40 GbE), which is why the encode stage is the one
// that fans out. Page reads happen inside the encode workers too (fillBatch:
// batched span reads that bring each page's recorded digest along), so
// memory-copy bandwidth scales with the worker count instead of serializing
// on the sequencer, and only pages written since their digest was recorded
// are hashed at all.
//
// Ordering guarantee: the emitter writes batches strictly in read order, so
// the wire stream is byte-for-byte identical to the sequential engine's for
// any worker count. Per-page encoding decisions (checksum-set lookup, delta
// attempt, deflate) depend only on the page content, never on neighbouring
// pages, which is what makes the fan-out sound.

// batchPages is the pipeline's work-unit size: 256 pages (1 MiB of guest
// memory) amortizes channel and scheduling overhead while keeping at most a
// few MiB in flight.
const batchPages = 256

// pageSeq enumerates the pages of one pre-copy round: the full address
// space in round one, the harvested dirty list afterwards.
type pageSeq struct {
	list  []int // explicit page numbers; nil means the range [0, count)
	count int   // used when list == nil
}

func seqAll(n int) pageSeq        { return pageSeq{count: n} }
func seqList(pages []int) pageSeq { return pageSeq{list: pages, count: len(pages)} }
func (s pageSeq) len() int        { return s.count }
func (s pageSeq) at(i int) int {
	if s.list != nil {
		return s.list[i]
	}
	return i
}

// pageBatch carries up to batchPages pages through the pipeline. The worker
// serializes its frames into buf; the emitter writes buf out in sequence
// order and merges the per-batch counters.
type pageBatch struct {
	pages []int          // page numbers
	data  []byte         // page payloads, len(pages)*PageSize
	sums  []checksum.Sum // per-page digests, meaningful where known
	known []bool         // sums[i] describes data's page i: read from the guest's digest table, or hashed by the offload
	buf   bytes.Buffer   // encoded wire frames, in page order
	m     Metrics        // per-batch page counters
	err   error          // set instead of buf when encoding failed
	done  chan struct{}
}

// pageSum returns page i's digest: the one fillBatch read with the bytes or
// the hash offload precomputed, computed in place — and kept — otherwise.
func (b *pageBatch) pageSum(alg checksum.Algorithm, i int, data []byte) checksum.Sum {
	if !b.known[i] {
		b.sums[i], b.known[i] = alg.Page(data), true
	}
	return b.sums[i]
}

// fail marks the batch failed and releases its emitter.
func (b *pageBatch) fail(err error) {
	if b.err == nil {
		b.err = err
	}
	close(b.done)
}

var batchPool = sync.Pool{New: func() interface{} {
	return &pageBatch{
		pages: make([]int, 0, batchPages),
		data:  make([]byte, 0, batchPages*vm.PageSize),
		sums:  make([]checksum.Sum, batchPages),
		known: make([]bool, batchPages),
	}
}}

// maxPooledBatchBytes bounds the frame buffer a pooled batch may retain. A
// batch's encoded frames normally fit its pages' raw size plus framing; a
// pathological round (incompressible deltas, say) can grow the buffer well
// beyond that, and sync.Pool would then keep the spike alive indefinitely.
// Oversized buffers are dropped so steady-state memory stays capped at any
// worker count.
const maxPooledBatchBytes = 2 * batchPages * vm.PageSize

func putBatch(b *pageBatch) {
	b.pages = b.pages[:0]
	b.data = b.data[:0]
	b.buf.Reset()
	if b.buf.Cap() > maxPooledBatchBytes {
		b.buf = bytes.Buffer{}
	}
	b.m = Metrics{}
	b.err = nil
	b.done = nil
	batchPool.Put(b)
}

// pipelineStats accumulates stage timings from concurrently running stages.
type pipelineStats struct {
	batches       atomic.Int64
	ingestBusy    atomic.Int64
	ingestStall   atomic.Int64
	dispatchStall atomic.Int64
	workerBusy    atomic.Int64
	emitBusy      atomic.Int64
	emitStall     atomic.Int64
}

func (s *pipelineStats) stageMetrics() StageMetrics {
	return StageMetrics{
		Batches:       s.batches.Load(),
		IngestBusy:    time.Duration(s.ingestBusy.Load()),
		IngestStall:   time.Duration(s.ingestStall.Load()),
		DispatchStall: time.Duration(s.dispatchStall.Load()),
		WorkerBusy:    time.Duration(s.workerBusy.Load()),
		EmitBusy:      time.Duration(s.emitBusy.Load()),
		EmitStall:     time.Duration(s.emitStall.Load()),
	}
}

// encoderConfig captures the per-round encoding parameters shared by the
// sequential engine and every pipeline worker.
type encoderConfig struct {
	alg      checksum.Algorithm
	destSums *checksum.Set // nil: no redundancy elimination
	compress bool
	// ranges selects the coalesced page-range encoding (negotiated in the
	// hello exchange); false keeps the byte-exact per-page v1 stream.
	ranges bool
	// sent, when non-nil, receives the digest of every page as it is
	// encoded (SourceOptions.SentSums). Recording never alters the wire
	// bytes.
	sent *SumTable
}

// sourceEncoder is the per-goroutine encoding state: a reusable deflate
// encoder, a delta scratch buffer, and (in range mode) the current
// coalescing run. Encoding is pure per page and runs never span a batch,
// so any number of encoders produce identical bytes for identical input.
type sourceEncoder struct {
	alg      checksum.Algorithm
	destSums *checksum.Set
	comp     *pageCompressor
	deltaBuf []byte
	ranges   bool
	sent     *SumTable
	run      rangeRun
}

func newSourceEncoder(cfg encoderConfig) (*sourceEncoder, error) {
	e := &sourceEncoder{alg: cfg.alg, destSums: cfg.destSums, ranges: cfg.ranges,
		sent: cfg.sent}
	if cfg.compress {
		c, err := getPageCompressor()
		if err != nil {
			return nil, err
		}
		e.comp = c
	}
	return e, nil
}

// release returns the encoder's pooled resources; the encoder must not be
// used afterwards. Safe on nil.
func (e *sourceEncoder) release() {
	if e == nil {
		return
	}
	putPageCompressor(e.comp)
	e.comp = nil
}

// encodePage emits the wire frame for one page: a bare checksum when the
// destination already holds the content, else a delta against base when one
// fits, else the full (possibly deflated) payload. base is non-nil in the
// first round of a recycled migration only. sum is data's digest, computed
// by the caller (possibly ahead of time by the hash offload).
func (e *sourceEncoder) encodePage(w io.Writer, base PageProvider, page uint64, sum checksum.Sum, data []byte, m *Metrics) error {
	m.PageFrames++
	if e.destSums != nil && e.destSums.Contains(sum) {
		m.PagesSum++
		return writePageSum(w, page, sum)
	}
	if base != nil {
		sent, err := e.tryDelta(w, base, page, sum, data, m)
		if err != nil {
			return err
		}
		if sent {
			return nil
		}
	}
	m.PagesFull++
	return sendFullPage(w, page, sum, data, e.comp, m)
}

// tryDelta attempts an XBZRLE delta of data against the provider's content
// for the frame. sent reports whether a message was written.
func (e *sourceEncoder) tryDelta(w io.Writer, base PageProvider, page uint64, sum checksum.Sum, data []byte, m *Metrics) (sent bool, err error) {
	enc, err := e.deltaPayload(base, int(page), data)
	if err != nil || enc == nil {
		return false, err
	}
	if err := writePageDelta(w, page, sum, enc); err != nil {
		return false, err
	}
	m.PagesDelta++
	m.DeltaSavedBytes += int64(vm.PageSize - len(enc) - 4)
	return true, nil
}

// runSourcePipeline streams the pages of one round through the three-stage
// pipeline: a reader filling batches, one encoder goroutine per entry of
// encs, and the in-order emitter (the calling goroutine) writing to w. The
// encoders are created once per migration by the caller and reused across
// rounds: each may own a pooled deflate encoder plus delta scratch, which
// used to be rebuilt every round and dominated the engine's allocations.
//
// Error propagation: any stage error cancels the pipeline context; the
// reader stops producing, workers fail remaining queued batches without
// encoding them, and the emitter drains the ordered queue before returning
// the first error — no goroutine outlives the call. Cancellation of ctx is
// observed the same way (the caller's conn watcher unblocks a stuck write).
func runSourcePipeline(ctx context.Context, w io.Writer, v *vm.VM, pages pageSeq, encs []*sourceEncoder, base PageProvider, save *saveSink, m *Metrics) error {
	n := pages.len()
	workers := len(encs)
	if n == 0 {
		return ctx.Err()
	}

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var stats pipelineStats
	jobs := make(chan *pageBatch)
	// ordered bounds the number of in-flight batches: the reader cannot run
	// more than workers+2 batches ahead of the emitter.
	ordered := make(chan *pageBatch, workers+2)

	// Stage 1: sequencer. It only assigns page numbers to batches — the
	// actual guest-memory copies happen in the workers (fillBatch), so the
	// read bandwidth shards across the pool instead of bottlenecking here.
	go func() {
		defer close(jobs)
		defer close(ordered)
		for off := 0; off < n; off += batchPages {
			t0 := time.Now()
			cnt := batchPages
			if off+cnt > n {
				cnt = n - off
			}
			b := batchPool.Get().(*pageBatch)
			b.done = make(chan struct{})
			b.pages = b.pages[:cnt]
			for i := 0; i < cnt; i++ {
				b.pages[i] = pages.at(off + i)
			}
			stats.ingestBusy.Add(int64(time.Since(t0)))
			t1 := time.Now()
			select {
			case ordered <- b:
			case <-pctx.Done():
				putBatch(b)
				return
			}
			stats.ingestStall.Add(int64(time.Since(t1)))
			t2 := time.Now()
			select {
			case jobs <- b:
			case <-pctx.Done():
				// Already visible to the emitter but never reaching a
				// worker: fail it so the emitter does not wait forever.
				b.fail(pctx.Err())
				return
			}
			stats.dispatchStall.Add(int64(time.Since(t2)))
			stats.batches.Add(1)
		}
	}()

	// Stage 2: encode workers (page reads + encoding).
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(enc *sourceEncoder) {
			defer wg.Done()
			for b := range jobs {
				if err := pctx.Err(); err != nil {
					b.fail(err)
					continue
				}
				t0 := time.Now()
				fillBatch(v, enc.alg, b)
				err := encodeBatch(enc, base, b)
				stats.workerBusy.Add(int64(time.Since(t0)))
				if err != nil {
					b.fail(err)
					cancel()
					continue
				}
				close(b.done)
			}
		}(encs[k])
	}

	// Stage 3: in-order emitter (this goroutine).
	var firstErr error
	for b := range ordered {
		t0 := time.Now()
		<-b.done // closed by a worker, or by the reader on teardown
		stats.emitStall.Add(int64(time.Since(t0)))
		if firstErr == nil && b.err != nil {
			firstErr = b.err
			cancel()
		}
		if firstErr == nil {
			t1 := time.Now()
			if err := emitBatch(w, b, save); err != nil {
				firstErr = err
				cancel()
			}
			stats.emitBusy.Add(int64(time.Since(t1)))
			m.addPageCounters(b.m)
		}
		putBatch(b)
	}
	wg.Wait()
	m.Stages.add(stats.stageMetrics())
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// saveSink writes the pages a round sends into this host's departure
// checkpoint as they go (SourceOptions.Save): those whose digest differs
// from the key its mirror — the checkpoint being replaced — holds at their
// position. The rest the pool has already.
type saveSink struct {
	stream *checkpoint.SaveStream
	mirror []checksum.Sum
}

// emitBatch writes an encoded batch's frames to the wire, then its changed
// pages to the save stream, if any. It runs on the one goroutine that emits,
// in page order, so the pages of a round land in the segment in order too.
// Every page's digest is known by now: encoding took it.
func emitBatch(w io.Writer, b *pageBatch, save *saveSink) error {
	if _, err := w.Write(b.buf.Bytes()); err != nil {
		return err
	}
	if save == nil {
		return nil
	}
	for i, p := range b.pages {
		if sum := b.sums[i]; b.known[i] && sum != save.mirror[p] {
			save.stream.Add(sum, b.data[i*vm.PageSize:(i+1)*vm.PageSize])
		}
	}
	return nil
}

// fillBatch copies the batch's pages out of the guest together with every
// digest the guest's digest table holds for them (atomically with the copy,
// so a digest always describes the bytes beside it), coalescing contiguous
// page numbers into single reads — one lock acquisition and one copy per
// contiguous span instead of per page. It is the one fill path of both
// engines and accounts the batch's hash work: pages that came with a digest
// are avoided bytes, the rest — their count is returned — are hashed by the
// offload or the encoder.
func fillBatch(v *vm.VM, alg checksum.Algorithm, b *pageBatch) (unknown int) {
	cnt := len(b.pages)
	b.data = b.data[:cnt*vm.PageSize]
	for i := 0; i < cnt; {
		j := i + 1
		for j < cnt && b.pages[j] == b.pages[j-1]+1 {
			j++
		}
		v.ReadRangeDigests(b.pages[i], j-i, b.data[i*vm.PageSize:j*vm.PageSize], alg, b.sums[i:j], b.known[i:j])
		i = j
	}
	cached := 0
	for _, ok := range b.known[:cnt] {
		if ok {
			cached++
		}
	}
	b.m.HashAvoidedBytes += int64(cached) * vm.PageSize
	b.m.HashBytes += int64(cnt-cached) * vm.PageSize
	return cnt - cached
}

// batchSumWorkers caps the sequential engine's hash-offload pool. The
// offload exists to overlap digesting with the single-goroutine encode loop,
// not to saturate the machine; past a few workers the batch is too small to
// split further.
const batchSumWorkers = 4

// minOffloadPages is the fewest digest-less pages worth fanning out: below
// it (a tail batch, or a returning guest whose table covers nearly all of
// the batch) the spawn overhead exceeds the win.
const minOffloadPages = 32

// offloadBatchSums digests the batch pages that came without a digest on a
// small goroutine pool, so the sequential (Workers <= 0) engine's encode loop
// reads them from b.sums instead of hashing inline — the hash stage was its
// single-core wall. The digests are exactly the ones encodeBatch would
// compute, so the wire stream is unchanged. Skipped on a single-CPU process
// or when fewer than minOffloadPages pages came without a digest (unknown,
// as fillBatch counted them); pageSum then hashes those inline.
func offloadBatchSums(alg checksum.Algorithm, b *pageBatch, unknown int) {
	cnt := len(b.pages)
	workers := runtime.GOMAXPROCS(0)
	if workers > batchSumWorkers {
		workers = batchSumWorkers
	}
	if workers < 2 || unknown < minOffloadPages {
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < cnt; i += workers {
				if !b.known[i] {
					b.sums[i] = alg.Page(b.data[i*vm.PageSize : (i+1)*vm.PageSize])
					b.known[i] = true
				}
			}
		}(k)
	}
	wg.Wait()
}

// encodeBatch serializes every page of the batch into its buffer — in
// coalesced range frames when negotiated, per-page v1 frames otherwise.
func encodeBatch(enc *sourceEncoder, base PageProvider, b *pageBatch) error {
	if enc.ranges {
		return encodeBatchRanges(enc, base, b)
	}
	for i, p := range b.pages {
		data := b.data[i*vm.PageSize : (i+1)*vm.PageSize]
		sum := b.pageSum(enc.alg, i, data)
		enc.sent.record(p, sum)
		if err := enc.encodePage(&b.buf, base, uint64(p), sum, data, &b.m); err != nil {
			return err
		}
	}
	return nil
}
