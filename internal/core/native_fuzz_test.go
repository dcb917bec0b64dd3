package core

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/delta"
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
// another version parses for its rejection, whatever its flags. No hello asks
// for post-copy without recycling: post-copy resolves pages by checksum, which
// is recycling by construction. And validateHello accepts no hello whose
// algorithm byte is not checksum.Default's, even one prepared for in every
// other respect: a page has one digest.
func FuzzHello(f *testing.F) {
	plain := hello{Version: ProtocolVersion, VMName: "vm0", PageSize: vm.PageSize, PageCount: 65536,
		Alg: uint8(checksum.Default), Recycle: true}
	named := plain
	named.HasRoot, named.Root = true, [32]byte{0: 0xde, 1: 0xad, 31: 0xef}
	f.Add(helloFrame(f, plain))
	f.Add(helloFrame(f, named))
	f.Add(helloFrame(f, hello{Version: ProtocolVersion, VMName: "", Recycle: true, PostCopy: true, Alg: uint8(checksum.Default)}))
	unrecycled := helloFrame(f, hello{Version: ProtocolVersion, VMName: "vm0", Recycle: true, PostCopy: true, Alg: uint8(checksum.Default)})
	unrecycled[len(unrecycled)-1] = 4 // post-copy without recycle
	f.Add(unrecycled)
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
		if h.PostCopy && !h.Recycle {
			t.Fatal("accepted post-copy without recycling")
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
		if checksum.Algorithm(h.Alg) == checksum.Default {
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
		if reason := validateHello(h, guest, h.PostCopy); reason == "" {
			t.Fatalf("validateHello accepted algorithm byte %d: %+v", h.Alg, h)
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
// frames, from a range frame whose start plus count wraps past 2^64, and from
// a round one that skips a page, which no checkpoint named by the source
// fills.
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
	f.Fuzz(mergeRaw)
}

// fuzzPostCopyPages is the size of the guest FuzzPostCopyDest migrates into.
const fuzzPostCopyPages = 8

// postCopyAllocSlack is what RunPostCopy may allocate beyond the guest's size:
// the hello-ack, the missing-page list, one frame's checksums and the errors.
const postCopyAllocSlack = 16 << 10

// recordPostCopy runs a real post-copy migration of a fuzzPostCopyPages guest
// into a destination without a checkpoint, so that every page is fetched, and
// returns every byte the source wrote: the hello, the manifest and one
// range-full response per page, in request order.
func recordPostCopy(f *testing.F) []byte {
	f.Helper()
	guest := func(seed int64) *vm.VM {
		v, err := vm.New(vm.Config{Name: "vm0", MemBytes: fuzzPostCopyPages * vm.PageSize, Seed: seed})
		if err != nil {
			f.Fatal(err)
		}
		return v
	}
	src, dst := guest(1), guest(2)
	if err := src.FillRandom(0.5); err != nil {
		f.Fatal(err)
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rc := &recordConn{Conn: a}
	var wg sync.WaitGroup
	var serr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, serr = PostCopySource(context.Background(), rc, src, PostCopySourceOptions{})
	}()
	res, derr := PostCopyDest(context.Background(), b, dst, PostCopyDestOptions{})
	wg.Wait()
	if serr != nil || derr != nil {
		f.Fatalf("recording: source %v, destination %v", serr, derr)
	}
	if res.Metrics.PagesRequested != fuzzPostCopyPages || !src.MemEqual(dst) {
		f.Fatalf("recording fetched %d pages, want %d", res.Metrics.PagesRequested, fuzzPostCopyPages)
	}
	return rc.rec.Bytes()
}

// FuzzPostCopyDest drives the post-copy destination from arbitrary source
// bytes: hello, manifest count and sums, and the range-full frames that answer
// its page requests. It must end in success or an error, never panic, and
// never allocate much beyond the guest it migrates into: the manifest must
// count exactly the guest's pages, and a response frame cannot claim pages
// past the guest's end.
func FuzzPostCopyDest(f *testing.F) {
	rec := recordPostCopy(f)
	f.Add(rec)
	f.Add(rec[:len(rec)/2])
	// The first response claims every page of the guest.
	manifestEnd := HelloMsgBytes(len("vm0")) + 1 + 8 + fuzzPostCopyPages*checksum.Size
	greedy := append([]byte(nil), rec...)
	greedy[manifestEnd+1+8] = fuzzPostCopyPages - 1
	f.Add(greedy)
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Accept(context.Background(), readWriter{bytes.NewReader(raw), io.Discard})
		if err != nil {
			return
		}
		dst, err := vm.New(vm.Config{Name: "vm0", MemBytes: fuzzPostCopyPages * vm.PageSize, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = s.RunPostCopy(context.Background(), dst, PostCopyDestOptions{})
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(dst.MemBytes()+postCopyAllocSlack); got > limit {
			t.Fatalf("post-copy destination allocated %d bytes for a %d-byte guest", got, dst.MemBytes())
		}
	})
}

func FuzzDeltaDecode(f *testing.F) {
	old := make([]byte, 256)
	for i := range old {
		old[i] = byte(i)
	}
	newer := append([]byte(nil), old...)
	newer[10] ^= 0xFF
	enc, err := delta.Encode(nil, old, newer, 256)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, raw []byte) {
		out := make([]byte, 256)
		// Either decodes or errors; the output length never changes.
		_ = delta.Decode(old, raw, out)
		if len(out) != 256 {
			t.Error("output resized")
		}
	})
}
