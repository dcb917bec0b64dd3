package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// buildRangeFull encodes a valid range-full frame (tag included) for count
// pages of the given content starting at start.
func buildRangeFull(t testing.TB, start uint64, pages [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeRangeHeader(&buf, msgRangeFull, start, len(pages)); err != nil {
		t.Fatal(err)
	}
	sums := make([]checksum.Sum, len(pages))
	for i, p := range pages {
		sums[i] = checksum.Default.Page(p)
	}
	if err := writeRangeSums(&buf, sums); err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		buf.Write(p)
	}
	return buf.Bytes()
}

// writeRangePage writes one page as a one-page range-full frame, tag included.
func writeRangePage(w io.Writer, page uint64, sum checksum.Sum, data []byte) error {
	if err := writeRangeHeader(w, msgRangeFull, page, 1); err != nil {
		return err
	}
	if err := writeRangeSums(w, []checksum.Sum{sum}); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// version4RangeFrame encodes, tag included, a range frame of one of the
// kinds version 4 had and version 5 reserves: tag 14 (deflated pages) or 15
// (XBZRLE deltas). After the header comes one (checksum, payload length) pair
// per page, then the payloads.
func version4RangeFrame(tag byte, start uint64, sums []checksum.Sum, payloads [][]byte) []byte {
	frame := append(binary.LittleEndian.AppendUint64([]byte{tag}, start), byte(len(sums)-1))
	for i, sum := range sums {
		frame = binary.LittleEndian.AppendUint32(append(frame, sum[:]...), uint32(len(payloads[i])))
	}
	for _, p := range payloads {
		frame = append(frame, p...)
	}
	return frame
}

// retiredTagStreams returns source streams carrying a well-formed two-page
// version-4 frame of each retired range tag, failing unless the destination
// engine refuses every one with ErrProtocol.
func retiredTagStreams(tb testing.TB) [][]byte {
	tb.Helper()
	var streams [][]byte
	for _, tag := range []byte{14, 15} {
		frame := version4RangeFrame(tag, 0, make([]checksum.Sum, 2), [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}})
		stream := scriptedSourceStream(tb, frame)
		dst, err := vm.New(vm.Config{Name: "vm0", MemBytes: 64 * vm.PageSize, Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := MigrateDest(context.Background(), readWriter{bytes.NewReader(stream), io.Discard}, dst, DestOptions{}); !errors.Is(err, ErrProtocol) {
			tb.Fatalf("tag %d: err = %v, want ErrProtocol", tag, err)
		}
		streams = append(streams, stream)
	}
	return streams
}

// TestRangeDecodeRejectsMalformed is the decoder corruption matrix: every
// violated invariant — page bounds, ordering floor — is an ErrProtocol, and a truncated frame is an I/O error; none may panic or
// install anything. The count byte holds count − 1, so every count it can
// carry is in range; a count larger than the frame reads past its end.
func TestRangeDecodeRejectsMalformed(t *testing.T) {
	const numPages = 1024
	page := make([]byte, vm.PageSize)
	valid := buildRangeFull(t, 10, [][]byte{page, page, page})

	// patchCount rewrites the count byte of an encoded frame.
	patchCount := func(frame []byte, count int) []byte {
		out := append([]byte(nil), frame...)
		out[9] = byte(count - 1)
		return out
	}

	cases := []struct {
		name     string
		frame    []byte
		floor    uint64
		wantProt bool // ErrProtocol; otherwise any non-nil error
	}{
		{"count-huge", patchCount(valid, MaxRangePages), 0, false},
		{"out-of-page-bounds", buildRangeFull(t, numPages-1, [][]byte{page, page}), 0, true},
		{"start-plus-count-wraps", wrappingRangeFull(t), 0, true},
		{"overlaps-floor", valid, 12, true},
		{"descends-below-floor", valid, 500, true},
		{"truncated-sums", valid[:20], 0, false},
		{"truncated-payload", valid[:len(valid)-1], 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := bytes.NewReader(tc.frame)
			tag, err := readMsgType(r)
			if err != nil {
				t.Fatal(err)
			}
			var f rangeFrame
			err = readRangeFrame(r, tag, numPages, tc.floor, &f)
			if err == nil {
				t.Fatal("malformed frame decoded cleanly")
			}
			if tc.wantProt && !errors.Is(err, ErrProtocol) {
				t.Errorf("error = %v, want ErrProtocol", err)
			}
		})
	}

	// Control: the unpatched frame decodes, and its fields survive the trip.
	r := bytes.NewReader(valid)
	tag, _ := readMsgType(r)
	var f rangeFrame
	if err := readRangeFrame(r, tag, numPages, 10, &f); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	if f.start != 10 || f.count != 3 || len(f.sums) != 3 || len(f.payload) != 3*vm.PageSize {
		t.Errorf("decoded frame = start %d count %d sums %d payload %d",
			f.start, f.count, len(f.sums), len(f.payload))
	}
}

// scriptedSourceStream builds a raw source-side byte stream: a hello, one
// frame, then done. Feeding it to MigrateDest exercises the destination's
// frame checks with no real source in the loop.
func scriptedSourceStream(t testing.TB, frame []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeHello(&buf, hello{
		Version:   ProtocolVersion,
		VMName:    "vm0",
		PageSize:  vm.PageSize,
		PageCount: 64,
		Alg:       uint8(checksum.Default),
	}); err != nil {
		t.Fatal(err)
	}
	buf.Write(frame)
	if err := writeMsgType(&buf, msgDone); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wrappingRangeFull is a range-full frame whose start plus count wraps past
// 2^64 back into the guest: start 2^64-1, two pages.
func wrappingRangeFull(t testing.TB) []byte {
	t.Helper()
	page := make([]byte, vm.PageSize)
	return buildRangeFull(t, math.MaxUint64, [][]byte{page, page})
}

// TestRangeFrameNegotiationGate: range frames need no negotiation, but
// range-sum references checkpoint state; without a checkpoint it is a
// protocol violation.
func TestRangeFrameNegotiationGate(t *testing.T) {
	t.Run("sum-without-checkpoint", func(t *testing.T) {
		var buf bytes.Buffer
		if err := writeRangeHeader(&buf, msgRangeSum, 0, 2); err != nil {
			t.Fatal(err)
		}
		if err := writeRangeSums(&buf, make([]checksum.Sum, 2)); err != nil {
			t.Fatal(err)
		}
		dst := newVM(t, "vm0", 64, 2)
		conn := readWriter{bytes.NewReader(scriptedSourceStream(t, buf.Bytes())), io.Discard}
		if _, err := MigrateDest(context.Background(), conn, dst, DestOptions{}); !errors.Is(err, ErrProtocol) {
			t.Errorf("range-sum without checkpoint: err = %v, want ErrProtocol", err)
		}
	})
}

// TestRangeFrameWrapRejected: a peer's range frame whose start plus count
// wraps around 2^64 is a protocol violation, not an install at a negative
// page — which panicked the destination's host process.
func TestRangeFrameWrapRejected(t *testing.T) {
	dst := newVM(t, "vm0", 64, 2)
	conn := readWriter{bytes.NewReader(scriptedSourceStream(t, wrappingRangeFull(t))), io.Discard}
	if _, err := MigrateDest(context.Background(), conn, dst, DestOptions{}); !errors.Is(err, ErrProtocol) {
		t.Errorf("wrapping range-full: err = %v, want ErrProtocol", err)
	}
}

// TestRangeWireSizeHelpers cross-checks the exported range-frame size
// arithmetic against the real encoders at odd run lengths;
// TestWireSizeConstants covers one page and MaxRangePages.
func TestRangeWireSizeHelpers(t *testing.T) {
	page := make([]byte, vm.PageSize)
	full := buildRangeFull(t, 0, [][]byte{page, page, page})
	if len(full) != RangeFullMsgBytes(3) {
		t.Errorf("RangeFullMsgBytes(3) = %d, encoder wrote %d", RangeFullMsgBytes(3), len(full))
	}

	var buf bytes.Buffer
	if err := writeRangeHeader(&buf, msgRangeSum, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := writeRangeSums(&buf, make([]checksum.Sum, 5)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != RangeSumMsgBytes(5) {
		t.Errorf("RangeSumMsgBytes(5) = %d, encoder wrote %d", RangeSumMsgBytes(5), buf.Len())
	}

}

// FuzzRangeDecode throws arbitrary bytes at the range-frame decoder under
// both range tags: it must reject or accept without panicking, and an
// accepted frame must satisfy the documented invariants. Version 4's frames
// of the retired tags seed it too, once the destination has refused them.
func FuzzRangeDecode(f *testing.F) {
	page := make([]byte, vm.PageSize)
	f.Add(buildRangeFull(f, 2, [][]byte{page, page}))
	var sums bytes.Buffer
	_ = writeRangeHeader(&sums, msgRangeSum, 9, 3)
	_ = writeRangeSums(&sums, make([]checksum.Sum, 3))
	f.Add(sums.Bytes())
	for _, stream := range retiredTagStreams(f) {
		f.Add(stream[HelloMsgBytes(len("vm0")):])
	}
	f.Add([]byte{byte(msgRangeFull)})
	f.Add(wrappingRangeFull(f)[1:]) // the header as the decoder sees it
	f.Fuzz(func(t *testing.T, raw []byte) {
		const numPages = 64
		for _, tag := range []msgType{msgRangeSum, msgRangeFull} {
			var fr rangeFrame
			if err := readRangeFrame(bytes.NewReader(raw), tag, numPages, 1, &fr); err != nil {
				continue
			}
			if fr.count < 1 || fr.count > MaxRangePages {
				t.Errorf("accepted count %d", fr.count)
			}
			// Checked without start+count, which wraps like the decoder's once did.
			if fr.start < 1 || fr.start > numPages || uint64(fr.count) > numPages-fr.start {
				t.Errorf("accepted run [%d,+%d) outside floor/bounds", fr.start, fr.count)
			}
			if len(fr.sums) != fr.count {
				t.Errorf("decoded %d sums for count %d", len(fr.sums), fr.count)
			}
		}
	})
}
