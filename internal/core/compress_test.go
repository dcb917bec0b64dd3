package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// writeZFrame encodes one deflated page as a one-page range-full-z frame at
// start, tag included.
func writeZFrame(w io.Writer, start uint64, sum checksum.Sum, z []byte) error {
	if err := writeRangeHeader(w, msgRangeFullZ, start, 1); err != nil {
		return err
	}
	if err := writeRangeVarMeta(w, []checksum.Sum{sum}, []uint32{uint32(len(z))}); err != nil {
		return err
	}
	_, err := w.Write(z)
	return err
}

// readZPage decodes one range-full-z frame from r and inflates its first page
// into out, the way the merge does.
func readZPage(r io.Reader, d *pageDecompressor, out []byte) (rangeFrame, error) {
	var f rangeFrame
	tag, err := readMsgType(r)
	if err != nil {
		return f, err
	}
	if tag != msgRangeFullZ {
		return f, fmt.Errorf("tag %v, want range-full-z", tag)
	}
	if err := readRangeFrame(r, tag, 1<<20, 0, &f); err != nil {
		return f, err
	}
	return f, d.inflate(f.payload[:f.lens[0]], out)
}

func TestCompressorRoundTrip(t *testing.T) {
	comp, err := newPageCompressor()
	if err != nil {
		t.Fatal(err)
	}
	decomp := newPageDecompressor()

	page := bytes.Repeat([]byte("abcd"), vm.PageSize/4)
	z, ok, err := comp.compress(page)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("highly repetitive page did not compress")
	}
	if len(z) >= vm.PageSize/4 {
		t.Errorf("compressed size %d, expected strong reduction", len(z))
	}

	var buf bytes.Buffer
	sum := checksum.MD5.Page(page)
	if err := writeZFrame(&buf, 3, sum, z); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, vm.PageSize)
	f, err := readZPage(&buf, decomp, out)
	if err != nil {
		t.Fatal(err)
	}
	if f.start != 3 || f.count != 1 || f.sums[0] != sum {
		t.Fatalf("header: start=%d count=%d sum=%v", f.start, f.count, f.sums[0])
	}
	if !bytes.Equal(out, page) {
		t.Error("decompressed page differs")
	}
}

func TestCompressorIncompressibleFallback(t *testing.T) {
	comp, err := newPageCompressor()
	if err != nil {
		t.Fatal(err)
	}
	// A page of pseudo-random bytes should not shrink under deflate.
	page := make([]byte, vm.PageSize)
	state := uint32(12345)
	for i := range page {
		state = state*1664525 + 1013904223
		page[i] = byte(state >> 24)
	}
	if _, ok, err := comp.compress(page); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Error("random page reported compressible")
	}
}

func TestCompressorReuse(t *testing.T) {
	// The compressor and decompressor are reused across pages; make sure
	// state resets cleanly.
	comp, err := newPageCompressor()
	if err != nil {
		t.Fatal(err)
	}
	decomp := newPageDecompressor()
	for i := 0; i < 5; i++ {
		page := bytes.Repeat([]byte{byte(i + 1)}, vm.PageSize)
		z, ok, err := comp.compress(page)
		if err != nil || !ok {
			t.Fatalf("page %d: ok=%v err=%v", i, ok, err)
		}
		var buf bytes.Buffer
		if err := writeZFrame(&buf, uint64(i), checksum.MD5.Page(page), z); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, vm.PageSize)
		if _, err := readZPage(&buf, decomp, out); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if !bytes.Equal(out, page) {
			t.Fatalf("page %d differs after round trip", i)
		}
	}
}

func TestDecompressorRejectsBadLengths(t *testing.T) {
	decomp := newPageDecompressor()
	out := make([]byte, vm.PageSize)
	// Length 0, and length >= PageSize (would never have been sent
	// compressed): both are malformed frames.
	for _, n := range []int{0, vm.PageSize} {
		var buf bytes.Buffer
		if err := writeZFrame(&buf, 0, checksum.Sum{}, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if _, err := readZPage(&buf, decomp, out); !errors.Is(err, ErrProtocol) {
			t.Errorf("compressed page of %d bytes: err = %v, want ErrProtocol", n, err)
		}
	}
}

func TestDecompressorRejectsGarbage(t *testing.T) {
	decomp := newPageDecompressor()
	out := make([]byte, vm.PageSize)
	// Valid length, invalid deflate stream.
	var buf bytes.Buffer
	if err := writeZFrame(&buf, 0, checksum.Sum{}, []byte("notdeflate")[:8]); err != nil {
		t.Fatal(err)
	}
	if _, err := readZPage(&buf, decomp, out); err == nil {
		t.Error("garbage deflate stream accepted")
	}
}

func TestMigrationWithCompression(t *testing.T) {
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillCompressible(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 64, 2)
	sm, dres := migrate(t, src, dst,
		SourceOptions{Compress: true},
		DestOptions{VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if sm.PagesCompressed == 0 {
		t.Error("no pages compressed on a compressible workload")
	}
	if sm.CompressionSavedBytes <= 0 {
		t.Error("compression saved nothing")
	}
	if dres.Metrics.PagesCompressed != sm.PagesCompressed {
		t.Errorf("dest saw %d compressed pages, source sent %d",
			dres.Metrics.PagesCompressed, sm.PagesCompressed)
	}
	// Wire traffic must be well below the raw memory footprint.
	if sm.BytesSent >= src.MemBytes()/2 {
		t.Errorf("BytesSent = %d, expected better than 2x on compressible data", sm.BytesSent)
	}
}

func TestMigrationCompressionIncompressible(t *testing.T) {
	// Random data: compression enabled, but everything falls back to raw —
	// and the migration still completes correctly.
	src := newVM(t, "vm0", 32, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 32, 2)
	sm, _ := migrate(t, src, dst,
		SourceOptions{Compress: true},
		DestOptions{VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatal("memory differs")
	}
	// The filled pages are incompressible; only the zero tail compresses.
	if sm.PagesCompressed > 2 {
		t.Errorf("%d random pages compressed", sm.PagesCompressed)
	}
}

func TestMigrationCompressionWithRecycling(t *testing.T) {
	// Compression composes with checkpoint recycling: unchanged pages go as
	// checksums, changed compressible pages go deflated.
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillCompressible(0.9); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	// Overwrite a quarter of memory with new compressible content.
	buf := make([]byte, vm.PageSize)
	for i := 0; i < 16; i++ {
		for j := range buf {
			buf[j] = byte((j%8)*(i+3) + 1)
		}
		src.WritePage(i, buf)
	}
	dst := newVM(t, "vm0", 64, 2)
	sm, _ := migrate(t, src, dst,
		SourceOptions{Recycle: true, Compress: true},
		DestOptions{Store: store, VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if sm.PagesSum != 48 {
		t.Errorf("PagesSum = %d, want 48", sm.PagesSum)
	}
	if sm.PagesCompressed != 16 {
		t.Errorf("PagesCompressed = %d, want 16", sm.PagesCompressed)
	}
}

// Property: compress/decompress round-trips arbitrary page contents that
// deflate accepts, whenever compression succeeds.
func TestCompressionRoundTripProperty(t *testing.T) {
	comp, err := newPageCompressor()
	if err != nil {
		t.Fatal(err)
	}
	decomp := newPageDecompressor()
	f := func(seedBytes []byte, repeat uint8) bool {
		if len(seedBytes) == 0 {
			seedBytes = []byte{0}
		}
		page := make([]byte, vm.PageSize)
		for i := range page {
			page[i] = seedBytes[i%len(seedBytes)] * byte(repeat%7)
		}
		z, ok, err := comp.compress(page)
		if err != nil {
			return false
		}
		if !ok {
			return true // raw fallback path, nothing to verify here
		}
		var buf bytes.Buffer
		if err := writeZFrame(&buf, 0, checksum.MD5.Page(page), z); err != nil {
			return false
		}
		out := make([]byte, vm.PageSize)
		if _, err := readZPage(&buf, decomp, out); err != nil {
			return false
		}
		return bytes.Equal(out, page)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
