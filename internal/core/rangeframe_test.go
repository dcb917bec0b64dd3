package core

import (
	"bytes"
	"context"
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

// buildRangeVar encodes a range-full-z/range-delta frame with arbitrary
// per-page lengths and payload — valid or deliberately malformed.
func buildRangeVar(t testing.TB, tag msgType, start uint64, lens []uint32, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeRangeHeader(&buf, tag, start, len(lens)); err != nil {
		t.Fatal(err)
	}
	sums := make([]checksum.Sum, len(lens))
	if err := writeRangeVarMeta(&buf, sums, lens); err != nil {
		t.Fatal(err)
	}
	buf.Write(payload)
	return buf.Bytes()
}

// TestRangeDecodeRejectsMalformed is the decoder corruption matrix: every
// violated invariant — page bounds, ordering floor, per-page length limits —
// is an ErrProtocol, and a truncated frame is an I/O error; none may panic or
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
		{"z-len-zero", buildRangeVar(t, msgRangeFullZ, 0, []uint32{0, 8}, make([]byte, 8)), 0, true},
		{"z-len-full-page", buildRangeVar(t, msgRangeFullZ, 0, []uint32{vm.PageSize, 8}, nil), 0, true},
		{"delta-len-over-page", buildRangeVar(t, msgRangeDelta, 0, []uint32{vm.PageSize + 1, 8}, nil), 0, true},
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
// range-sum and range-delta reference checkpoint state; without a checkpoint
// they are protocol violations.
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

	v := buildRangeVar(t, msgRangeDelta, 0, []uint32{11, 7}, make([]byte, 18))
	if len(v) != RangeVarMsgBytes(2, 18) {
		t.Errorf("RangeVarMsgBytes(2, 18) = %d, encoder wrote %d", RangeVarMsgBytes(2, 18), len(v))
	}
}

// FuzzRangeDecode throws arbitrary bytes at the range-frame decoder under
// every range tag: it must reject or accept without panicking, and an
// accepted frame must satisfy the documented invariants.
func FuzzRangeDecode(f *testing.F) {
	page := make([]byte, vm.PageSize)
	f.Add(buildRangeFull(f, 2, [][]byte{page, page}))
	var sums bytes.Buffer
	_ = writeRangeHeader(&sums, msgRangeSum, 9, 3)
	_ = writeRangeSums(&sums, make([]checksum.Sum, 3))
	f.Add(sums.Bytes())
	f.Add(buildRangeVar(f, msgRangeFullZ, 0, []uint32{4, 4}, make([]byte, 8)))
	f.Add(buildRangeVar(f, msgRangeDelta, 0, []uint32{4, 4}, make([]byte, 8)))
	f.Add([]byte{byte(msgRangeFull)})
	f.Add(wrappingRangeFull(f)[1:]) // the header as the decoder sees it
	f.Fuzz(func(t *testing.T, raw []byte) {
		const numPages = 64
		for _, tag := range []msgType{msgRangeSum, msgRangeFull, msgRangeFullZ, msgRangeDelta} {
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
