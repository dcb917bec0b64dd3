package core

import (
	"bytes"
	"errors"
	"testing"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// TestWireSizeConstants cross-checks the exported size constants against
// the actual encoders, so the analytical simulator can never drift from the
// real protocol. Every page-carrying frame is a range frame behind a 10-byte
// header; it is checked at one page and at MaxRangePages, in both kinds.
func TestWireSizeConstants(t *testing.T) {
	var buf bytes.Buffer
	sum := checksum.Default.Page([]byte("x"))

	if RangeHeaderBytes != 10 {
		t.Errorf("RangeHeaderBytes = %d, want 10", RangeHeaderBytes)
	}
	for _, n := range []int{1, MaxRangePages} {
		sums := make([]checksum.Sum, n)
		buf.Reset()
		if err := writeRangeHeader(&buf, msgRangeSum, 7, n); err != nil {
			t.Fatal(err)
		}
		if err := writeRangeSums(&buf, sums); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != RangeSumMsgBytes(n) {
			t.Errorf("RangeSumMsgBytes(%d) = %d, encoder wrote %d", n, RangeSumMsgBytes(n), buf.Len())
		}
		pages := make([][]byte, n)
		for i := range pages {
			pages[i] = make([]byte, vm.PageSize)
		}
		if full := buildRangeFull(t, 7, pages); len(full) != RangeFullMsgBytes(n) {
			t.Errorf("RangeFullMsgBytes(%d) = %d, encoder wrote %d", n, RangeFullMsgBytes(n), len(full))
		}
	}

	buf.Reset()
	if err := writeRoundEnd(&buf, 1, 42); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != RoundEndMsgBytes {
		t.Errorf("RoundEndMsgBytes = %d, encoder wrote %d", RoundEndMsgBytes, buf.Len())
	}

	buf.Reset()
	if err := writeMsgType(&buf, msgDone); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != DoneMsgBytes {
		t.Errorf("DoneMsgBytes = %d, encoder wrote %d", DoneMsgBytes, buf.Len())
	}

	buf.Reset()
	if err := writeHelloAck(&buf, helloAck{OK: true}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != HelloAckMsgBytes {
		t.Errorf("HelloAckMsgBytes = %d, encoder wrote %d", HelloAckMsgBytes, buf.Len())
	}

	buf.Reset()
	h := hello{Version: ProtocolVersion, VMName: "vm-name", PageSize: 4096, PageCount: 10, Alg: uint8(checksum.Default)}
	if err := writeHello(&buf, h); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != HelloMsgBytes(len(h.VMName)) {
		t.Errorf("HelloMsgBytes(%d) = %d, encoder wrote %d", len(h.VMName), HelloMsgBytes(len(h.VMName)), buf.Len())
	}

	buf.Reset()
	set := checksum.NewSet(3)
	set.Add(sum)
	set.Add(checksum.Default.Page([]byte("y")))
	if err := writeHashAnnounce(&buf, set); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != AnnounceMsgBytes(set.Len()) {
		t.Errorf("AnnounceMsgBytes(%d) = %d, encoder wrote %d", set.Len(), AnnounceMsgBytes(set.Len()), buf.Len())
	}
}

// TestSourceBytesClosedForm: what the source sends is a closed form of its
// own counters — the hello (32 bytes more when it offers a manifest root), a
// 10-byte header per frame, a 16-byte checksum per page, a 4096-byte payload
// per full page, a 13-byte round end per round and the one-byte done — and it
// is exactly what the destination receives. A page a named leg's round one
// leaves to the checkpoint costs nothing. Checked on a cold leg and on
// recycled legs of a churned guest, announced and named, each with a second
// round.
func TestSourceBytesClosedForm(t *testing.T) {
	const pages = 600
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	src.TouchRandomPages(pages / 10)
	for _, leg := range []struct {
		name           string
		recycle, named bool
	}{
		{"cold", false, false},
		{"recycled", true, false},
		{"named", true, true},
	} {
		t.Run(leg.name, func(t *testing.T) {
			opts := SourceOptions{Recycle: leg.recycle, Pause: func() { src.TouchRandomPages(5) }}
			if leg.named {
				opts.Mirror = mirrorOf(t, store, "vm0")
			}
			dst := newVM(t, "vm0", pages, 2)
			m, dres := migrate(t, src, dst, opts, DestOptions{Store: store})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			want := int64(HelloMsgBytes(len("vm0")) + 10*m.PageFrames + 16*(m.PagesSum+m.PagesFull) +
				4096*m.PagesFull + 13*m.Rounds + 1)
			if leg.named {
				want += checkpoint.RootSize
			}
			if m.BytesSent != want || dres.Metrics.BytesReceived != want {
				t.Errorf("source sent %d bytes, destination received %d; the closed form of %+v is %d",
					m.BytesSent, dres.Metrics.BytesReceived, m, want)
			}
			if (m.PagesKept > 0) != leg.named || dres.Metrics.PagesKept != m.PagesKept {
				t.Errorf("source kept %d pages, destination %d; want some exactly on the named leg",
					m.PagesKept, dres.Metrics.PagesKept)
			}
			if m.Rounds < 2 || m.RangeFrames == 0 || leg.recycle && m.PageFrames == m.RangeFrames {
				t.Errorf("leg too narrow: %d rounds, %d frames of which %d carry several pages",
					m.Rounds, m.PageFrames, m.RangeFrames)
			}
			if dres.Metrics.PageFrames != m.PageFrames || dres.Metrics.RangeFrames != m.RangeFrames {
				t.Errorf("destination counted %d frames (%d multi-page), source %d (%d)",
					dres.Metrics.PageFrames, dres.Metrics.RangeFrames, m.PageFrames, m.RangeFrames)
			}
		})
	}
}

func TestMsgTypeString(t *testing.T) {
	for mt, want := range map[msgType]string{
		msgHello:        "hello",
		msgHelloAck:     "hello-ack",
		msgHashAnnounce: "hash-announce",
		msgRoundEnd:     "round-end",
		msgDone:         "done",
		msgAck:          "ack",
		msgRangeSum:     "range-sum",
		msgRangeFull:    "range-full",
		msgType(4):      "msg(4)", // reserved, as are 5, 9, 10, 11, 14 and 15
		msgType(5):      "msg(5)",
		msgType(9):      "msg(9)",
		msgType(10):     "msg(10)",
		msgType(11):     "msg(11)",
		msgType(14):     "msg(14)",
		msgType(15):     "msg(15)",
		msgType(99):     "msg(99)",
	} {
		if got := mt.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", mt, got, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.00 KiB"},
		{3 << 20, "3.00 MiB"},
		{5 << 30, "5.00 GiB"},
	}
	for _, tc := range cases {
		if got := FormatBytes(tc.n); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := hello{
		Version:   ProtocolVersion,
		VMName:    "desk-42",
		PageSize:  4096,
		PageCount: 1 << 20,
		Alg:       uint8(checksum.Default),
		Recycle:   true,
	}
	// Without a root the hello is the frame it always was; with one, 32 bytes
	// follow the flags.
	for _, withRoot := range []bool{false, true} {
		buf.Reset()
		in.HasRoot = withRoot
		if withRoot {
			in.Root = [32]byte{1, 2, 3, 31: 0xff}
		}
		if err := writeHello(&buf, in); err != nil {
			t.Fatal(err)
		}
		wantLen := 1 + 2 + 2 + len(in.VMName) + 4 + 8 + 1 + 1
		if withRoot {
			wantLen += 32
		}
		if buf.Len() != wantLen {
			t.Errorf("root=%v: hello is %d bytes, want %d", withRoot, buf.Len(), wantLen)
		}
		tag, err := readMsgType(&buf)
		if err != nil || tag != msgHello {
			t.Fatalf("tag=%v err=%v", tag, err)
		}
		got, err := readHello(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != in {
			t.Errorf("round trip: got %+v, want %+v", got, in)
		}
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := helloAck{OK: false, Reason: "size mismatch", HaveCheckpoint: true, ManifestMatch: true}
	if err := writeHelloAck(&buf, in); err != nil {
		t.Fatal(err)
	}
	tag, err := readMsgType(&buf)
	if err != nil || tag != msgHelloAck {
		t.Fatalf("tag=%v err=%v", tag, err)
	}
	got, err := readHelloAck(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Errorf("round trip: got %+v, want %+v", got, in)
	}
}

// TestHandshakeFlagsStrict: a hello of this version or any hello-ack that
// sets a flag bit this version does not define is a protocol violation,
// version 1's retired capability bits included. A version-1 hello with its
// capability offers still parses, so the destination can refuse it by
// version.
func TestHandshakeFlagsStrict(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, hello{Version: ProtocolVersion, VMName: "vm0", PageSize: 4096, PageCount: 4,
		Alg: uint8(checksum.Default), Recycle: true}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()[1:]
	for _, bit := range []byte{8, 16, 32, 64, 128} {
		bad := append([]byte(nil), frame...)
		bad[len(bad)-1] |= bit
		if _, err := readHello(bytes.NewReader(bad)); !errors.Is(err, ErrProtocol) {
			t.Errorf("hello flag bit %#x: err = %v, want ErrProtocol", bit, err)
		}
		v1 := append([]byte(nil), bad...)
		v1[0] = 1
		if h, err := readHello(bytes.NewReader(v1)); err != nil || h.Version != 1 || !h.Recycle {
			t.Errorf("version-1 hello with flag bit %#x: %+v, %v", bit, h, err)
		}
	}
	for _, bit := range []byte{4, 16, 64, 128} {
		if _, err := readHelloAck(bytes.NewReader([]byte{1 | bit, 0, 0})); !errors.Is(err, ErrProtocol) {
			t.Errorf("hello-ack flag bit %#x: err = %v, want ErrProtocol", bit, err)
		}
	}
}
