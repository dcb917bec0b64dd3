package core

import (
	"bytes"
	"io"
	"runtime"
	"sync"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// The source engine's batch path (sendSequential): each round's pages go
// through in 256-page batches — fill (the guest's bytes with every digest
// its table holds), hash offload (a small pool digests what the table did
// not cover), encode (checksum-set lookup, delta attempt, deflate), emit
// (one buffered write, then the changed pages to the save stream). The
// checksum rate, not the network, bounds fast-link migrations (MD5 at
// ~350 MiB/s vs 10/40 GbE, §3.4); the offload is what keeps hashing off the
// single encode loop, and only pages written since their digest was recorded
// are hashed at all. Per-page encoding decisions depend only on the page
// content, never on neighbouring pages.

// batchPages is the engine's work-unit size: 256 pages (1 MiB of guest
// memory) amortizes the per-batch read, offload and write while keeping the
// batch buffers a few MiB.
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

// pageBatch carries up to batchPages pages through the engine: the encoder
// serializes their frames into buf, and emitBatch writes buf out.
type pageBatch struct {
	pages []int          // page numbers
	data  []byte         // page payloads, len(pages)*PageSize
	sums  []checksum.Sum // per-page digests, meaningful where known
	known []bool         // sums[i] describes data's page i: read from the guest's digest table, or hashed by the offload
	buf   bytes.Buffer   // encoded wire frames, in page order
}

// pageSum returns page i's digest: the one fillBatch read with the bytes or
// the hash offload precomputed, computed in place — and kept — otherwise.
func (b *pageBatch) pageSum(alg checksum.Algorithm, i int, data []byte) checksum.Sum {
	if !b.known[i] {
		b.sums[i], b.known[i] = alg.Page(data), true
	}
	return b.sums[i]
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
// Oversized buffers are dropped so steady-state memory stays capped.
const maxPooledBatchBytes = 2 * batchPages * vm.PageSize

func putBatch(b *pageBatch) {
	b.pages = b.pages[:0]
	b.data = b.data[:0]
	b.buf.Reset()
	if b.buf.Cap() > maxPooledBatchBytes {
		b.buf = bytes.Buffer{}
	}
	batchPool.Put(b)
}

// sourceEncoder is the migration's encoding state: the per-round encoding
// parameters, a reusable deflate encoder, a delta scratch buffer, and (in
// range mode) the current coalescing run. Encoding is pure per page and runs
// never span a batch.
type sourceEncoder struct {
	alg      checksum.Algorithm
	destSums *checksum.Set // nil: no redundancy elimination
	comp     *pageCompressor
	deltaBuf []byte
	// ranges selects the coalesced page-range encoding (negotiated in the
	// hello exchange); false keeps the byte-exact per-page v1 stream.
	ranges bool
	// sent, when non-nil, receives the digest of every page as it is encoded
	// (SourceOptions.SentSums). Recording never alters the wire bytes.
	sent *SumTable
	run  rangeRun
}

// newSourceEncoder builds the encoder, taking a pooled deflate encoder when
// compress is set.
func newSourceEncoder(alg checksum.Algorithm, destSums *checksum.Set, compress, ranges bool, sent *SumTable) (*sourceEncoder, error) {
	e := &sourceEncoder{alg: alg, destSums: destSums, ranges: ranges, sent: sent}
	if compress {
		c, err := getPageCompressor()
		if err != nil {
			return nil, err
		}
		e.comp = c
	}
	return e, nil
}

// release returns the encoder's pooled resources; the encoder must not be
// used afterwards.
func (e *sourceEncoder) release() {
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

// saveSink writes the pages a round sends into this host's departure
// checkpoint as they go (SourceOptions.Save): those whose digest differs
// from the key its mirror — the checkpoint being replaced — holds at their
// position. The rest the pool has already.
type saveSink struct {
	stream *checkpoint.SaveStream
	mirror []checksum.Sum
}

// emitBatch writes an encoded batch's frames to the wire, then its changed
// pages to the save stream, if any, in page order — so the pages of a round
// land in the segment in order too. Every page's digest is known by now:
// encoding took it.
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
// contiguous span instead of per page. It accounts the batch's hash work in
// m: pages that came with a digest are avoided bytes, the rest — their count
// is returned — are hashed by the offload or the encoder.
func fillBatch(v *vm.VM, alg checksum.Algorithm, b *pageBatch, m *Metrics) (unknown int) {
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
	m.HashAvoidedBytes += int64(cached) * vm.PageSize
	m.HashBytes += int64(cnt-cached) * vm.PageSize
	return cnt - cached
}

// batchSumWorkers caps the hash-offload pool. The offload exists to overlap
// digesting with the single-goroutine encode loop, not to saturate the
// machine; past a few goroutines the batch is too small to split further.
const batchSumWorkers = 4

// minOffloadPages is the fewest digest-less pages worth fanning out: below
// it (a tail batch, or a returning guest whose table covers nearly all of
// the batch) the spawn overhead exceeds the win.
const minOffloadPages = 32

// offloadBatchSums digests the batch pages that came without a digest on a
// small goroutine pool, so the encode loop reads them from b.sums instead of
// hashing inline — the hash stage was its single-core wall. The digests are
// exactly the ones encodeBatch would compute, so the wire stream is
// unchanged. Skipped on a single-CPU process or when fewer than
// minOffloadPages pages came without a digest (unknown, as fillBatch counted
// them); pageSum then hashes those inline.
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
func encodeBatch(enc *sourceEncoder, base PageProvider, b *pageBatch, m *Metrics) error {
	if enc.ranges {
		return encodeBatchRanges(enc, base, b, m)
	}
	for i, p := range b.pages {
		data := b.data[i*vm.PageSize : (i+1)*vm.PageSize]
		sum := b.pageSum(enc.alg, i, data)
		enc.sent.record(p, sum)
		if err := enc.encodePage(&b.buf, base, uint64(p), sum, data, m); err != nil {
			return err
		}
	}
	return nil
}
