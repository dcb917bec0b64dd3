package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/delta"
	"vecycle/internal/vm"
)

// Page-range frames (tags 12-15), the one frame family that carries pages. A
// range frame carries a contiguous run of pages that all received the same
// treatment, so a run pays one tag, start and count, and one decode and
// install at the destination:
//
//	tag · start u64 · count−1 u8 · per-page metadata · concatenated payloads
//
// where the metadata is one checksum per page (range-sum, range-full) or
// one (checksum, payload-length) pair per page (range-full-z, range-delta).
// Runs never exceed MaxRangePages and never span a 256-page batch, so the
// frame layout is a pure function of page content and batch boundaries. A run
// of one page is a one-page range frame.

// MaxRangePages caps the pages one range frame may carry. It equals the
// source's batch size: runs cannot span batches, so a larger cap would
// never be used, and the bound keeps a decoder's per-frame buffering at
// MaxRangePages*vm.PageSize bytes no matter what a hostile peer sends.
const MaxRangePages = batchPages

// The count byte holds count − 1, so every byte value is a count in
// 1..MaxRangePages and the decoder has no count to reject. This fails to
// compile unless MaxRangePages is 256.
const _ = uint8(MaxRangePages-1) - 255

// pageTreatment classifies how one page crosses the wire; a range frame
// coalesces a run of pages sharing one treatment.
type pageTreatment uint8

const (
	treatNone  pageTreatment = iota
	treatSum                 // destination already holds the content
	treatFull                // raw page payload
	treatFullZ               // deflate-compressed payload
	treatDelta               // XBZRLE delta against the checkpoint frame
)

// rangeTag maps a treatment to its range-frame message type.
func (t pageTreatment) rangeTag() msgType {
	switch t {
	case treatSum:
		return msgRangeSum
	case treatFull:
		return msgRangeFull
	case treatFullZ:
		return msgRangeFullZ
	default:
		return msgRangeDelta
	}
}

// rangeRun accumulates the current candidate run inside a sourceEncoder:
// page checksums, per-page payload lengths (variable-size treatments), and
// the concatenated payload bytes for the compressed/delta treatments. Raw
// full payloads are not copied here — they are a contiguous span of the
// batch's data buffer and are written straight from it.
type rangeRun struct {
	treat    pageTreatment
	start    uint64 // first page number of the run
	startIdx int    // index of the first run page within the batch
	sums     []checksum.Sum
	lens     []uint32
	payload  bytes.Buffer
}

// reset clears the run for reuse, keeping the scratch capacity.
func (r *rangeRun) reset() {
	r.treat = treatNone
	r.sums = r.sums[:0]
	r.lens = r.lens[:0]
	r.payload.Reset()
}

// len reports the pages accumulated so far.
func (r *rangeRun) len() int { return len(r.sums) }

// writeRangeHeader emits the tag, start page, and page count of a range
// frame; count is 1..MaxRangePages.
func writeRangeHeader(w io.Writer, t msgType, start uint64, count int) error {
	var buf [RangeHeaderBytes]byte
	buf[0] = byte(t)
	binary.LittleEndian.PutUint64(buf[1:9], start)
	buf[9] = byte(count - 1)
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("core: write %v header: %w", t, err)
	}
	return nil
}

// writeRangeSums emits the per-page checksum block of a range frame.
func writeRangeSums(w io.Writer, sums []checksum.Sum) error {
	for i := range sums {
		if _, err := w.Write(sums[i][:]); err != nil {
			return fmt.Errorf("core: write range sums: %w", err)
		}
	}
	return nil
}

// writeRangeVarMeta emits the (checksum, length) metadata block of a
// variable-payload range frame (range-full-z, range-delta).
func writeRangeVarMeta(w io.Writer, sums []checksum.Sum, lens []uint32) error {
	var lenBuf [4]byte
	for i := range sums {
		if _, err := w.Write(sums[i][:]); err != nil {
			return fmt.Errorf("core: write range meta: %w", err)
		}
		binary.LittleEndian.PutUint32(lenBuf[:], lens[i])
		if _, err := w.Write(lenBuf[:]); err != nil {
			return fmt.Errorf("core: write range meta: %w", err)
		}
	}
	return nil
}

// encodeBatch serializes every page of the batch into its buffer. Each page
// is classified on its own content: a bare checksum when the destination
// already holds it, else a delta against base when one fits (base is non-nil
// in the first round of a recycled migration only), else the full payload,
// deflated when the entropy gate admits it and it shrinks. Contiguous
// same-treatment pages coalesce into range frames, a lone page into a
// one-page one.
func encodeBatch(e *sourceEncoder, base PageProvider, b *pageBatch, m *Metrics) error {
	r := &e.run
	r.reset()
	for i, p := range b.pages {
		data := b.data[i*vm.PageSize : (i+1)*vm.PageSize]
		sum := b.pageSum(e.alg, i, data)
		e.sent.record(p, sum)
		treat := treatFull
		var payload []byte
		switch {
		case e.destSums != nil && e.destSums.Contains(sum):
			treat = treatSum
		default:
			if base != nil {
				enc, err := e.deltaPayload(base, p, data)
				if err != nil {
					return err
				}
				if enc != nil {
					treat, payload = treatDelta, enc
				}
			}
			if treat == treatFull && e.comp != nil {
				if !compressible(data) {
					m.CompressSkipped++
				} else {
					m.CompressAttempted++
					z, ok, err := e.comp.compress(data)
					if err != nil {
						return err
					}
					if ok {
						treat, payload = treatFullZ, z
					}
				}
			}
		}

		// A run extends while the treatment matches, the page numbers stay
		// contiguous, and the cap is not hit; anything else flushes.
		if r.treat != treat || r.len() >= MaxRangePages ||
			(r.len() > 0 && r.start+uint64(r.len()) != uint64(p)) {
			if err := e.flushRun(b, m); err != nil {
				return err
			}
			r.treat = treat
			r.start = uint64(p)
			r.startIdx = i
		}
		r.sums = append(r.sums, sum)
		switch treat {
		case treatSum:
			m.PagesSum++
		case treatFull:
			m.PagesFull++
		case treatFullZ:
			r.lens = append(r.lens, uint32(len(payload)))
			r.payload.Write(payload)
			m.PagesFull++
			m.PagesCompressed++
			m.CompressionSavedBytes += int64(vm.PageSize - len(payload) - 4)
		case treatDelta:
			r.lens = append(r.lens, uint32(len(payload)))
			r.payload.Write(payload)
			m.PagesDelta++
			m.DeltaSavedBytes += int64(vm.PageSize - len(payload) - 4)
		}
	}
	return e.flushRun(b, m)
}

// deltaPayload attempts an XBZRLE delta of data against the provider's
// content for page p. nil means no delta applies (frame uncovered or the
// encoding too large); the returned slice is the encoder's scratch, valid
// until the next call.
func (e *sourceEncoder) deltaPayload(base PageProvider, p int, data []byte) ([]byte, error) {
	old, ok, err := base.PageAt(p)
	if err != nil {
		return nil, deltaBaseErr(err)
	}
	if !ok {
		return nil, nil
	}
	enc, err := delta.Encode(e.deltaBuf[:0], old, data, deltaLimit)
	if errors.Is(err, delta.ErrTooLarge) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	e.deltaBuf = enc[:0] // keep the (possibly grown) scratch for reuse
	return enc, nil
}

// flushRun writes the accumulated run into the batch buffer as one range
// frame and resets the run.
func (e *sourceEncoder) flushRun(b *pageBatch, m *Metrics) error {
	r := &e.run
	n := r.len()
	if n == 0 {
		return nil
	}
	defer r.reset()
	w := &b.buf
	m.PageFrames++
	if n > 1 {
		m.RangeFrames++
	}
	if err := writeRangeHeader(w, r.treat.rangeTag(), r.start, n); err != nil {
		return err
	}
	switch r.treat {
	case treatSum:
		return writeRangeSums(w, r.sums)
	case treatFull:
		if err := writeRangeSums(w, r.sums); err != nil {
			return err
		}
		payload := b.data[r.startIdx*vm.PageSize : (r.startIdx+n)*vm.PageSize]
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("core: write range payload: %w", err)
		}
		return nil
	default: // treatFullZ, treatDelta
		if err := writeRangeVarMeta(w, r.sums, r.lens); err != nil {
			return err
		}
		if _, err := w.Write(r.payload.Bytes()); err != nil {
			return fmt.Errorf("core: write range payload: %w", err)
		}
		return nil
	}
}

// rangeFrame is one decoded page-range frame, between its decode and its
// install.
type rangeFrame struct {
	t       msgType
	start   uint64
	count   int
	sums    []checksum.Sum
	lens    []uint32 // per-page payload lengths (range-full-z, range-delta)
	payload []byte   // concatenated payloads; empty for range-sum
}

// reset clears the frame for reuse, keeping scratch capacity.
func (f *rangeFrame) reset() {
	f.count = 0
	f.sums = f.sums[:0]
	f.lens = f.lens[:0]
	f.payload = f.payload[:0]
}

// readRangeFrame parses one range frame after its tag byte into f, reusing
// f's scratch. numPages bounds the addressable page space; floor is the
// first page number this frame may cover — the end of the previous range
// frame of the round — so overlapping or descending runs are rejected (the
// source emits each round's pages in strictly ascending order).
func readRangeFrame(r io.Reader, t msgType, numPages int, floor uint64, f *rangeFrame) error {
	f.reset()
	f.t = t
	var hdr [RangeHeaderBytes - 1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("core: read %v header: %w", t, err)
	}
	f.start = binary.LittleEndian.Uint64(hdr[:8])
	f.count = int(hdr[8]) + 1
	// start+count may wrap; compare against the room left after start instead.
	if f.start > uint64(numPages) || uint64(f.count) > uint64(numPages)-f.start {
		return fmt.Errorf("%w: %v [%d,+%d) out of range (%d pages)", ErrProtocol, t, f.start, f.count, numPages)
	}
	if f.start < floor {
		return fmt.Errorf("%w: %v starting at %d overlaps or precedes an earlier run ending at %d", ErrProtocol, t, f.start, floor)
	}

	total := 0
	switch t {
	case msgRangeSum, msgRangeFull:
		var sum checksum.Sum
		for i := 0; i < f.count; i++ {
			if _, err := io.ReadFull(r, sum[:]); err != nil {
				return fmt.Errorf("core: read %v sums: %w", t, err)
			}
			f.sums = append(f.sums, sum)
		}
		if t == msgRangeFull {
			total = f.count * vm.PageSize
		}
	case msgRangeFullZ, msgRangeDelta:
		var meta [checksum.Size + 4]byte
		for i := 0; i < f.count; i++ {
			if _, err := io.ReadFull(r, meta[:]); err != nil {
				return fmt.Errorf("core: read %v meta: %w", t, err)
			}
			var sum checksum.Sum
			copy(sum[:], meta[:checksum.Size])
			n := binary.LittleEndian.Uint32(meta[checksum.Size:])
			// A compressed page must shrink; a delta may at most reach a
			// full page.
			limit := vm.PageSize
			if t == msgRangeFullZ {
				limit = vm.PageSize - 1
			}
			if n == 0 || int(n) > limit {
				return fmt.Errorf("%w: %v payload length %d out of range", ErrProtocol, t, n)
			}
			f.sums = append(f.sums, sum)
			f.lens = append(f.lens, n)
			total += int(n)
		}
	}
	if total > 0 {
		if cap(f.payload) < total {
			f.payload = make([]byte, total)
		}
		f.payload = f.payload[:total]
		if _, err := io.ReadFull(r, f.payload); err != nil {
			return fmt.Errorf("core: read %v payload: %w", t, err)
		}
	}
	return nil
}

// destScratch is the merge loop's decode and install state: the range frame
// being merged, a span buffer that grows to one full range, a checksum
// scratch for range-sum probes, and a lazily created inflater.
type destScratch struct {
	frame  rangeFrame
	buf    []byte
	sums   []checksum.Sum
	decomp *pageDecompressor
}

// span returns the scratch buffer grown to n pages.
func (st *destScratch) span(n int) []byte {
	if cap(st.buf) < n*vm.PageSize {
		st.buf = make([]byte, n*vm.PageSize)
	}
	return st.buf[:n*vm.PageSize]
}

// destScratchPool recycles merge scratch across migrations. A scratch grows
// to a full range frame's payload and a full span (MaxRangePages*vm.PageSize
// = 1 MiB each) plus an inflater, too much to allocate afresh for every
// arrival.
var destScratchPool = sync.Pool{New: func() interface{} {
	return new(destScratch)
}}

func getDestScratch() *destScratch {
	return destScratchPool.Get().(*destScratch)
}

func putDestScratch(st *destScratch) {
	destScratchPool.Put(st)
}

// awaitInstall holds the merge of a frame covering pages [start, start+count)
// until the background bootstrap (openBootstrap) has installed the checkpoint
// spans under it. Every frame kind waits, full pages included: a late
// checkpoint install must never land on top of wire content, a delta needs
// its base, and a range-sum probe compares against the bootstrapped frame. A
// span whose pages could not be read surfaces here as the same retryable
// recycle-read failure a block read mid-merge raises; a cancelled context
// passes through as itself. Free once the install is complete or when there
// is none (cp nil, a union, an eager restore).
func awaitInstall(cp *checkpoint.Checkpoint, start, count int) error {
	return installErr(cp.AwaitFrames(start, count))
}

// drainInstall waits out the background bootstrap before the final ack: round
// one normally touched every span already, but nothing may write to the guest
// once the source is told it arrived.
func drainInstall(cp *checkpoint.Checkpoint) error {
	return installErr(cp.Drain())
}

func installErr(err error) error {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return recycleReadErr(err)
}

// resolveSums makes pages [start, start+len(want)) of v hold the content the
// source named by checksum alone — the merge of Listing 1 for a range-sum
// frame. The resident digests come from v's digest table (seeded by the
// checkpoint bootstrap, kept by every install), so a page is hashed only
// when the table knows nothing about it.
// A resident match is reuse in place; a mismatch falls back to the checkpoint
// index (lseek+read), installed with its digest — the exception.
func resolveSums(v *vm.VM, cp *checkpoint.Checkpoint, alg checksum.Algorithm, start int, want []checksum.Sum, st *destScratch, m *Metrics) error {
	m.PagesSum += len(want)
	var hashed int
	st.sums, hashed = v.Digests(start, len(want), alg, st.sums)
	m.ProbeHashBytes += int64(hashed) * vm.PageSize
	m.HashAvoidedBytes += int64(len(want)-hashed) * vm.PageSize
	for i, sum := range want {
		if st.sums[i] == sum {
			m.PagesReusedInPlace++
			continue
		}
		data, ok, err := cp.ReadBlock(sum)
		if err != nil {
			return recycleReadErr(err)
		}
		if !ok {
			return fmt.Errorf("%w: source referenced checksum %v absent from checkpoint", ErrProtocol, sum)
		}
		v.InstallPageSum(start+i, data, alg, sum)
		cp.Release(data)
		m.PagesReusedFromDisk++
	}
	return nil
}

// installWire lands pages that crossed the wire — in full or as a delta —
// at start, with their digests, and hands each to save, the stream of this
// host's next checkpoint, when the merge writes one as it goes
// (DestOptions.Save). A page's key is its frame's sum: the trust the digest
// table, and so a post-ack save, gives it too.
func installWire(v *vm.VM, save *checkpoint.SaveStream, start int, data []byte, alg checksum.Algorithm, sums []checksum.Sum) {
	v.InstallRangeSums(start, data, alg, sums)
	if save != nil {
		for i, sum := range sums {
			save.Add(sum, data[i*vm.PageSize:(i+1)*vm.PageSize])
		}
	}
}

// applyRange installs one decoded range frame into v: per-page verification
// and payload decoding happen into a span buffer, then the whole run lands
// with a single vectorized install and the metrics update once per range. The
// caller has already validated the frame bounds and the checkpoint
// requirement. The frame's per-page sums describe the installed content in
// every treatment, so they land in v's digest table with the bytes.
func applyRange(v *vm.VM, cp *checkpoint.Checkpoint, save *checkpoint.SaveStream, alg checksum.Algorithm, verify bool, f *rangeFrame, st *destScratch, m *Metrics) error {
	start := int(f.start)
	sums := f.sums[:f.count]
	switch f.t {
	case msgRangeSum:
		return resolveSums(v, cp, alg, start, sums, st, m)

	case msgRangeFull:
		if verify {
			for i := 0; i < f.count; i++ {
				if got := alg.Page(f.payload[i*vm.PageSize : (i+1)*vm.PageSize]); got != f.sums[i] {
					return fmt.Errorf("%w: page %d payload checksum mismatch", ErrProtocol, start+i)
				}
			}
		}
		installWire(v, save, start, f.payload, alg, sums)
		m.PagesFull += f.count

	case msgRangeFullZ:
		if st.decomp == nil {
			st.decomp = newPageDecompressor()
		}
		buf := st.span(f.count)
		off := 0
		for i := 0; i < f.count; i++ {
			n := int(f.lens[i])
			dst := buf[i*vm.PageSize : (i+1)*vm.PageSize]
			if err := st.decomp.inflate(f.payload[off:off+n], dst); err != nil {
				return err
			}
			off += n
			if verify {
				if got := alg.Page(dst); got != f.sums[i] {
					return fmt.Errorf("%w: page %d payload checksum mismatch", ErrProtocol, start+i)
				}
			}
		}
		installWire(v, save, start, buf, alg, sums)
		m.PagesFull += f.count
		m.PagesCompressed += f.count

	case msgRangeDelta:
		// The frames still hold bootstrap (checkpoint) content: deltas are
		// first-round only and each round-one frame appears exactly once,
		// so the whole base span can be read at once and patched in place.
		buf := st.span(f.count)
		v.ReadRange(start, f.count, buf)
		off := 0
		for i := 0; i < f.count; i++ {
			n := int(f.lens[i])
			dst := buf[i*vm.PageSize : (i+1)*vm.PageSize]
			if err := delta.Decode(dst, f.payload[off:off+n], dst); err != nil {
				return fmt.Errorf("%w: %v", ErrProtocol, err)
			}
			off += n
			// Deltas are always verified: a base mismatch (stale mirror at
			// the source) silently corrupts otherwise.
			if got := alg.Page(dst); got != f.sums[i] {
				return fmt.Errorf("%w: page %d delta produced checksum mismatch (stale delta base?)", ErrProtocol, start+i)
			}
		}
		installWire(v, save, start, buf, alg, sums)
		m.PagesDelta += f.count
	}
	return nil
}
