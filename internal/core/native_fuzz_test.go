package core

import (
	"bytes"
	"context"
	"io"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// Native fuzz targets (run on their seed corpus under plain `go test`; use
// `go test -fuzz FuzzAccept ./internal/core` for continuous fuzzing).

func FuzzAccept(f *testing.F) {
	// Seed with a valid hello and a few mutations.
	var valid bytes.Buffer
	h := hello{Version: ProtocolVersion, VMName: "vm0", PageSize: 4096, PageCount: 4, Alg: uint8(checksum.Default)}
	if err := writeHello(&valid, h); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte{byte(msgHello)})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Accept(context.Background(), readWriter{bytes.NewReader(raw), io.Discard})
		if err != nil {
			return
		}
		// Structurally valid hello: the parsed sizes must be coherent.
		if s.MemBytes() < 0 {
			t.Errorf("negative MemBytes %d", s.MemBytes())
		}
	})
}

// helloFrame renders a hello without its tag byte, as readHello sees it.
func helloFrame(f *testing.F, h hello) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := writeHello(&buf, h); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()[1:]
}

// FuzzHello feeds readHello arbitrary bytes. Whatever parses must respect the
// frame's own limits and survive a write/read round trip unchanged — the
// parsed struct is the whole meaning of the frame, so nothing may be lost or
// invented between the two. A hello of this version sets only the flag bits
// it defines, so it re-encodes to exactly the bytes it was read from; one of
// another version parses for its rejection, whatever its flags — so version
// 3's post-copy hello, whose mode bit this version reserves, is refused by its
// version and not dropped as a malformed frame. And validateHello accepts no
// hello of another version, or whose algorithm byte is not checksum.Default's,
// even one prepared for in every other respect: a page has one digest.
func FuzzHello(f *testing.F) {
	plain := hello{Version: ProtocolVersion, VMName: "vm0", PageSize: vm.PageSize, PageCount: 65536,
		Alg: uint8(checksum.Default), Recycle: true}
	named := plain
	named.HasRoot, named.Root = true, [32]byte{0: 0xde, 1: 0xad, 31: 0xef}
	f.Add(helloFrame(f, plain))
	f.Add(helloFrame(f, named))
	modeBit := helloFrame(f, plain)
	modeBit[len(modeBit)-1] |= 4 // version 3's post-copy mode bit
	if _, err := readHello(bytes.NewReader(modeBit)); err == nil {
		f.Fatalf("a version-%d hello with the post-copy bit parsed", ProtocolVersion)
	}
	f.Add(modeBit)
	v3ModeBit := append([]byte(nil), modeBit...)
	v3ModeBit[0] = 3
	if _, err := readHello(bytes.NewReader(v3ModeBit)); err != nil {
		f.Fatalf("version 3's post-copy hello does not parse: %v", err)
	}
	f.Add(v3ModeBit)
	// Every algorithm byte but the default's, on a hello small enough to
	// prepare a guest for.
	small := plain
	small.PageCount = 4
	for _, alg := range []uint8{uint8(checksum.MD5), uint8(checksum.FNV), uint8(checksum.FAST64), 0, 255} {
		frame := helloFrame(f, small)
		frame[len(frame)-2] = alg
		f.Add(frame)
	}
	withRoot := helloFrame(f, named)
	f.Add(withRoot[:len(withRoot)-7]) // truncated root
	rootless := helloFrame(f, plain)
	rootless[len(rootless)-1] = 2 // root flag without recycle
	f.Add(append(rootless, named.Root[:]...))
	f.Add(append([]byte{1, 0, 0xff, 0xff}, bytes.Repeat([]byte{'x'}, 70)...)) // name length beyond the limit
	retired := helloFrame(f, plain)
	retired[len(retired)-1] |= 8 | 16 // version 1's capability offers
	f.Add(retired)
	v1 := append([]byte(nil), retired...)
	v1[0] = 1 // a version-1 hello: parsed, for validateHello to refuse
	f.Add(v1)
	f.Fuzz(func(t *testing.T, raw []byte) {
		h, err := readHello(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if len(h.VMName) > maxNameLen {
			t.Fatalf("accepted a %d-byte name", len(h.VMName))
		}
		if h.HasRoot && !h.Recycle {
			t.Fatal("accepted a manifest root without recycling")
		}
		var buf bytes.Buffer
		if err := writeHello(&buf, h); err != nil {
			t.Fatalf("parsed hello does not re-encode: %v", err)
		}
		frame := buf.Bytes()[1:]
		if len(frame) > len(raw) {
			t.Fatalf("re-encoding is %d bytes, the input only %d", len(frame), len(raw))
		}
		if h.Version == ProtocolVersion && !bytes.Equal(frame, raw[:len(frame)]) {
			t.Fatalf("version-%d hello % x re-encodes as % x", ProtocolVersion, raw[:len(frame)], frame)
		}
		again, err := readHello(bytes.NewReader(frame))
		if err != nil || again != h {
			t.Fatalf("round trip: %+v → %+v (err %v)", h, again, err)
		}
		if h.Version == ProtocolVersion && checksum.Algorithm(h.Alg) == checksum.Default {
			return
		}
		// The guest the hello describes, where it is small enough to
		// prepare — so no other check can refuse it first — else any.
		name, pages := "vm0", uint64(1)
		if h.VMName != "" && h.PageSize == vm.PageSize && h.PageCount > 0 && h.PageCount <= 64 {
			name, pages = h.VMName, h.PageCount
		}
		guest, err := vm.New(vm.Config{Name: name, MemBytes: int64(pages) * vm.PageSize, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if reason := validateHello(h, guest); reason == "" {
			t.Fatalf("validateHello accepted version %d, algorithm byte %d: %+v", h.Version, h.Alg, h)
		}
	})
}

// FuzzHelloAck is FuzzHello for the destination's reply. The hello-ack
// carries no version, so every one is held to this version's flag bits, and
// an accepted frame re-encodes to exactly its bytes.
func FuzzHelloAck(f *testing.F) {
	for _, a := range []helloAck{
		{OK: true},
		{OK: true, HaveCheckpoint: true, ManifestMatch: true},
		{OK: true, HaveCheckpoint: true, PartialCheckpoint: true},
		{Reason: "VM \"vm0\" already resident on beta"},
	} {
		var buf bytes.Buffer
		if err := writeHelloAck(&buf, a); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[1:])
	}
	f.Add([]byte{0xff, 0xff, 0xff}) // every flag, reason length beyond the limit
	f.Add([]byte{1, 9, 0, 'c', 'u', 't'})
	f.Add([]byte{1 | 2 | 4 | 16, 0, 0}) // version 1's capability acceptances
	f.Fuzz(func(t *testing.T, raw []byte) {
		a, err := readHelloAck(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if len(a.Reason) > maxNameLen {
			t.Fatalf("accepted a %d-byte reason", len(a.Reason))
		}
		var buf bytes.Buffer
		if err := writeHelloAck(&buf, a); err != nil {
			t.Fatalf("parsed hello-ack does not re-encode: %v", err)
		}
		frame := buf.Bytes()[1:]
		if len(frame) > len(raw) || !bytes.Equal(frame, raw[:len(frame)]) {
			t.Fatalf("hello-ack % x re-encodes as % x", raw, frame)
		}
		again, err := readHelloAck(bytes.NewReader(frame))
		if err != nil || again != a {
			t.Fatalf("round trip: %+v → %+v (err %v)", a, again, err)
		}
	})
}

// fuzzPage is the page the merge fuzzers' seed frames carry.
func fuzzPage() []byte {
	page := make([]byte, vm.PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	return page
}

// mergeRaw drives the whole destination engine with one mutated source
// stream: it must terminate with success or error, never panic.
func mergeRaw(t *testing.T, raw []byte) {
	dst, err := vm.New(vm.Config{Name: "vm0", MemBytes: 64 * vm.PageSize, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = MigrateDest(context.Background(), readWriter{bytes.NewReader(raw), io.Discard}, dst, DestOptions{VerifyPayloads: true})
}

// FuzzMergeStream fuzzes the destination engine from one-page range frames,
// the frames a lone page crosses in.
func FuzzMergeStream(f *testing.F) {
	page := fuzzPage()
	var full bytes.Buffer
	if err := writeRangePage(&full, 0, checksum.Default.Page(page), page); err != nil {
		f.Fatal(err)
	}
	stream := scriptedSourceStream(f, full.Bytes())
	f.Add(stream)
	f.Add(stream[:20])
	f.Fuzz(mergeRaw)
}

// FuzzRangeMergeStream fuzzes the same destination engine from range
// frames, from a range frame whose start plus count wraps past 2^64, from
// a round one that skips a page, which no checkpoint named by the source
// fills, and from version 4's frames of the retired tags 14 and 15, which the
// destination must refuse.
func FuzzRangeMergeStream(f *testing.F) {
	page := fuzzPage()
	f.Add(scriptedSourceStream(f, buildRangeFull(f, 0, [][]byte{page, page})))
	var sums bytes.Buffer
	_ = writeRangeHeader(&sums, msgRangeSum, 0, 2)
	_ = writeRangeSums(&sums, []checksum.Sum{checksum.Default.Page(page), checksum.Default.Page(page)})
	f.Add(scriptedSourceStream(f, sums.Bytes()))
	f.Add(scriptedSourceStream(f, wrappingRangeFull(f)))
	gapped := append(buildRangeFull(f, 0, [][]byte{page}), buildRangeFull(f, 2, [][]byte{page})...)
	var end bytes.Buffer
	_ = writeRoundEnd(&end, 1, 0)
	f.Add(scriptedSourceStream(f, append(gapped, end.Bytes()...)))
	for _, stream := range retiredTagStreams(f) {
		f.Add(stream)
	}
	f.Fuzz(mergeRaw)
}
