package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// Page-range frames (tags 12 and 13), the one frame family that carries
// pages. A range frame carries a contiguous run of pages that all received
// the same treatment, so a run pays one tag, start and count, and one decode
// and install at the destination:
//
//	tag · start u64 · count−1 u8 · one checksum per page · raw payloads
//
// where a range-sum frame has no payloads and a range-full frame one 4 KiB
// page per checksum. Runs never exceed MaxRangePages and never span a 256-page batch, so the
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

// rangeRun accumulates the current candidate run inside a sourceEncoder:
// its frame's tag — the pages' treatment — and their checksums. The payloads
// are not copied here — they are a contiguous span of the batch's data buffer
// and are written straight from it.
type rangeRun struct {
	tag      msgType // msgRangeSum or msgRangeFull; 0 while the run is empty
	start    uint64  // first page number of the run
	startIdx int     // index of the first run page within the batch
	sums     []checksum.Sum
}

// reset clears the run for reuse, keeping the scratch capacity.
func (r *rangeRun) reset() {
	r.tag = 0
	r.sums = r.sums[:0]
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

// encodeBatch serializes every page of the batch into its buffer. Each page
// is classified on its own content: left out when it equals keep's key at
// its position (keep is non-nil in the first round of a return matched by
// name only), else a bare checksum when the destination already holds it,
// else the full payload. Contiguous same-treatment pages coalesce into range
// frames, a lone page into a one-page one; a page left out ends the run it
// would have joined.
func encodeBatch(e *sourceEncoder, keep []checksum.Sum, b *pageBatch, m *Metrics) error {
	r := &e.run
	r.reset()
	for i, p := range b.pages {
		sum := b.pageSum(i, b.data[i*vm.PageSize:(i+1)*vm.PageSize])
		if keep != nil && sum == keep[p] {
			m.PagesKept++
			continue
		}
		tag := msgRangeFull
		if e.destSums != nil && e.destSums.Contains(sum) {
			tag = msgRangeSum
		}

		// A run extends while the treatment matches, the page numbers stay
		// contiguous, and the cap is not hit; anything else flushes.
		if r.tag != tag || r.len() >= MaxRangePages ||
			(r.len() > 0 && r.start+uint64(r.len()) != uint64(p)) {
			if err := e.flushRun(b, m); err != nil {
				return err
			}
			r.tag = tag
			r.start = uint64(p)
			r.startIdx = i
		}
		r.sums = append(r.sums, sum)
		if tag == msgRangeSum {
			m.PagesSum++
		} else {
			m.PagesFull++
		}
	}
	return e.flushRun(b, m)
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
	if err := writeRangeHeader(w, r.tag, r.start, n); err != nil {
		return err
	}
	if err := writeRangeSums(w, r.sums); err != nil || r.tag == msgRangeSum {
		return err
	}
	payload := b.data[r.startIdx*vm.PageSize : (r.startIdx+n)*vm.PageSize]
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("core: write range payload: %w", err)
	}
	return nil
}

// rangeFrame is one decoded page-range frame, between its decode and its
// install.
type rangeFrame struct {
	t       msgType
	start   uint64
	count   int
	sums    []checksum.Sum
	payload []byte // concatenated raw payloads; empty for range-sum
}

// reset clears the frame for reuse, keeping scratch capacity.
func (f *rangeFrame) reset() {
	f.count = 0
	f.sums = f.sums[:0]
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

	var sum checksum.Sum
	for i := 0; i < f.count; i++ {
		if _, err := io.ReadFull(r, sum[:]); err != nil {
			return fmt.Errorf("core: read %v sums: %w", t, err)
		}
		f.sums = append(f.sums, sum)
	}
	if t == msgRangeFull {
		total := f.count * vm.PageSize
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
// being merged and a checksum scratch for range-sum probes.
type destScratch struct {
	frame rangeFrame
	sums  []checksum.Sum
}

// destScratchPool recycles merge scratch across migrations. A scratch grows
// to a full range frame's payload (MaxRangePages*vm.PageSize = 1 MiB), too
// much to allocate afresh for every arrival.
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
// checkpoint install must never land on top of wire content, and a range-sum
// probe compares against the bootstrapped frame. A
// span whose pages could not be read surfaces here as the same retryable
// recycle-read failure a block read mid-merge raises; a cancelled context
// passes through as itself. Free once the install is complete or when there
// is none (cp nil, a union).
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
func resolveSums(v *vm.VM, cp *checkpoint.Checkpoint, start int, want []checksum.Sum, st *destScratch, m *Metrics) error {
	m.PagesSum += len(want)
	var hashed int
	st.sums, hashed = v.Digests(start, len(want), st.sums)
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
		v.InstallPageSum(start+i, data, sum)
		cp.Release(data)
		m.PagesReusedFromDisk++
	}
	return nil
}

// applyRange installs one decoded range frame into v: a range-sum frame
// through resolveSums, a range-full frame's payloads with a single vectorized
// install, each page's key its frame's sum — the trust the digest table, and
// so a post-ack save, gives it too. Installed payloads also go to save, the
// stream of this host's next checkpoint, when the merge writes one as it goes
// (DestOptions.Save). The caller has already validated the frame bounds and
// the checkpoint requirement.
func applyRange(v *vm.VM, cp *checkpoint.Checkpoint, save *checkpoint.SaveStream, verify bool, f *rangeFrame, st *destScratch, m *Metrics) error {
	start := int(f.start)
	sums := f.sums[:f.count]
	if f.t == msgRangeSum {
		return resolveSums(v, cp, start, sums, st, m)
	}
	if verify {
		for i, sum := range sums {
			if checksum.Default.Page(f.payload[i*vm.PageSize:(i+1)*vm.PageSize]) != sum {
				return fmt.Errorf("%w: page %d payload checksum mismatch", ErrProtocol, start+i)
			}
		}
	}
	v.InstallRangeSums(start, f.payload, sums)
	if save != nil {
		for i, sum := range sums {
			save.Add(sum, f.payload[i*vm.PageSize:(i+1)*vm.PageSize])
		}
	}
	m.PagesFull += f.count
	return nil
}
