package core

import (
	"bytes"
	"context"
	"io"
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
	h := hello{Version: ProtocolVersion, VMName: "vm0", PageSize: 4096, PageCount: 4, Alg: checksum.MD5}
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
// another version parses for its rejection, whatever its flags.
func FuzzHello(f *testing.F) {
	plain := hello{Version: ProtocolVersion, VMName: "vm0", PageSize: vm.PageSize, PageCount: 65536,
		Alg: checksum.Default, Recycle: true}
	named := plain
	named.HasRoot, named.Root = true, [32]byte{0: 0xde, 1: 0xad, 31: 0xef}
	f.Add(helloFrame(f, plain))
	f.Add(helloFrame(f, named))
	f.Add(helloFrame(f, hello{Version: ProtocolVersion, VMName: "", PostCopy: true, Alg: checksum.MD5}))
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

// FuzzMergeStream fuzzes the destination engine from per-page frames.
func FuzzMergeStream(f *testing.F) {
	page := fuzzPage()
	var full bytes.Buffer
	if err := writePageFull(&full, 0, checksum.MD5.Page(page), page); err != nil {
		f.Fatal(err)
	}
	valid := scriptedSourceStream(f, full.Bytes())
	f.Add(valid)
	f.Add(valid[:20])
	f.Fuzz(mergeRaw)
}

// FuzzRangeMergeStream fuzzes the same destination engine from range
// frames, and from a range frame whose start plus count wraps past 2^64.
func FuzzRangeMergeStream(f *testing.F) {
	page := fuzzPage()
	f.Add(scriptedSourceStream(f, buildRangeFull(f, 0, [][]byte{page, page})))
	var sums bytes.Buffer
	_ = writeRangeHeader(&sums, msgRangeSum, 0, 2)
	_ = writeRangeSums(&sums, []checksum.Sum{checksum.MD5.Page(page), checksum.MD5.Page(page)})
	f.Add(scriptedSourceStream(f, sums.Bytes()))
	f.Add(scriptedSourceStream(f, wrappingRangeFull(f)))
	f.Fuzz(mergeRaw)
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
