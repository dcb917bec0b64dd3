package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math/rand"
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
// invented between the two.
func FuzzHello(f *testing.F) {
	plain := hello{Version: ProtocolVersion, VMName: "vm0", PageSize: vm.PageSize, PageCount: 65536,
		Alg: checksum.Default, Recycle: true, CompactAnnounce: true, RangeFrames: true}
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
		if buf.Len()-1 > len(raw) {
			t.Fatalf("re-encoding is %d bytes, the input only %d", buf.Len()-1, len(raw))
		}
		again, err := readHello(bytes.NewReader(buf.Bytes()[1:]))
		if err != nil || again != h {
			t.Fatalf("round trip: %+v → %+v (err %v)", h, again, err)
		}
	})
}

// FuzzHelloAck is FuzzHello for the destination's reply.
func FuzzHelloAck(f *testing.F) {
	for _, a := range []helloAck{
		{OK: true},
		{OK: true, HaveCheckpoint: true, CompactAnnounce: true, RangeFrames: true, ManifestMatch: true},
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
		again, err := readHelloAck(bytes.NewReader(buf.Bytes()[1:]))
		if err != nil || again != a {
			t.Fatalf("round trip: %+v → %+v (err %v)", a, again, err)
		}
	})
}

// FuzzAnnounceV2Decode feeds the compact announcement decoder arbitrary
// bytes, seeded with real frames of every body mode. A frame that decodes is
// a set: encoding it again and decoding that yields the same set. A short
// frame claiming millions of sums must fail on its length, not allocate for
// them first.
func FuzzAnnounceV2Decode(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	random, structured, dense := checksum.NewSet(0), checksum.NewSet(0), checksum.NewSet(0)
	page := make([]byte, vm.PageSize)
	for i := 0; i < 40; i++ { // small frames: the fuzzer minimizes every find
		rng.Read(page)
		random.Add(checksum.Default.Page(page))
		structured.Add(checksum.FNV.Page(page)) // half of every sum is zero padding
		var s checksum.Sum
		binary.BigEndian.PutUint64(s[8:], uint64(3*i))
		dense.Add(s)
	}
	single := checksum.NewSet(1)
	single.Add(checksum.Sum{1: 0xaa, 15: 1})
	for _, set := range []*checksum.Set{checksum.NewSet(0), single, random, structured, dense} {
		var buf bytes.Buffer
		if err := writeHashAnnounceV2(&buf, set); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()[1:]
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	for mode := byte(0); mode <= 3; mode++ {
		f.Add([]byte{0xff, 0xff, 0xff, 0x03, mode, 0, 0, 0, 0}) // 2^26-1 sums, empty body
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		set, err := readHashAnnounceV2(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeHashAnnounceV2(&buf, set); err != nil {
			t.Fatalf("decoded set does not re-encode: %v", err)
		}
		again, err := readHashAnnounceV2(bytes.NewReader(buf.Bytes()[1:]))
		if err != nil {
			t.Fatalf("re-encoded announcement does not decode: %v", err)
		}
		if again.Len() != set.Len() || again.IntersectCount(set) != set.Len() {
			t.Fatalf("round trip changed the set: %d sums → %d, %d in common", set.Len(), again.Len(), again.IntersectCount(set))
		}
	})
}

func FuzzMergeStream(f *testing.F) {
	var valid bytes.Buffer
	h := hello{Version: ProtocolVersion, VMName: "vm0", PageSize: 4096, PageCount: 2, Alg: checksum.MD5}
	if err := writeHello(&valid, h); err != nil {
		f.Fatal(err)
	}
	page := make([]byte, vm.PageSize)
	if err := writePageFull(&valid, 0, checksum.MD5.Page(page), page); err != nil {
		f.Fatal(err)
	}
	if err := writeMsgType(&valid, msgDone); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:20])
	f.Fuzz(func(t *testing.T, raw []byte) {
		dst, err := vm.New(vm.Config{Name: "vm0", MemBytes: 2 * vm.PageSize, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Must terminate with success or error, never panic.
		_, _ = MigrateDest(context.Background(), readWriter{bytes.NewReader(raw), io.Discard}, dst, DestOptions{})
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
