package vm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"vecycle/internal/checksum"
)

// newLazy is newVM for a guest made by NewLazy: nothing allocated, and each
// chunk waits for its own first writer.
func newLazy(t *testing.T, pages int) *VM {
	t.Helper()
	v, err := NewLazy(Config{Name: "test", MemBytes: int64(pages) * PageSize, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// allocated reports how many of v's chunks are allocated.
func allocated(v *VM) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	n := 0
	for _, c := range v.mem {
		if c != nil {
			n++
		}
	}
	return n
}

// checkReadsZero asserts that every read path of v sees all-zero memory.
func checkReadsZero(t *testing.T, v *VM) {
	t.Helper()
	n := v.NumPages()
	zero := make([]byte, PageSize)
	zsum := alg.Page(zero)
	zfnv := checksum.FNV.Page(zero)
	var zfp uint64
	for b := 0; b < 8; b++ {
		zfp = zfp<<8 | uint64(zfnv[b])
	}
	all := make([]byte, n*PageSize)
	buf := make([]byte, PageSize)
	for i := 0; i < n; i++ {
		v.ReadPage(i, buf)
		if !bytes.Equal(buf, zero) {
			t.Fatalf("ReadPage(%d) is not zero", i)
		}
		if s := v.PageSum(i, alg); s != zsum {
			t.Fatalf("PageSum(%d) = %x, want the zero page's", i, s)
		}
	}
	for i := range all {
		all[i] = 0xAA
	}
	v.ReadRange(0, n, all)
	if !bytes.Equal(all, make([]byte, len(all))) {
		t.Error("ReadRange is not zero")
	}
	var w bytes.Buffer
	if err := v.WriteRangeTo(&w, 0, n); err != nil || !bytes.Equal(w.Bytes(), make([]byte, len(all))) {
		t.Errorf("WriteRangeTo: err %v, %d bytes, zero %v", err, w.Len(), bytes.Equal(w.Bytes(), make([]byte, len(all))))
	}
	sums, known := make([]checksum.Sum, n), make([]bool, n)
	other := make([]checksum.Sum, n)
	for i := range other {
		other[i] = alg.Page(page(0xFF))
	}
	for _, keep := range [][]checksum.Sum{nil, other} {
		for i := range all {
			all[i] = 0xAA
		}
		v.ReadRangeDigests(0, n, all, sums, known, keep)
		if !bytes.Equal(all, make([]byte, len(all))) {
			t.Errorf("ReadRangeDigests (keep %v) is not zero", keep != nil)
		}
		for i := range sums {
			if known[i] && sums[i] != zsum {
				t.Fatalf("ReadRangeDigests reports page %d's digest as %x, want the zero page's", i, sums[i])
			}
		}
	}
	for i, s := range v.RangeSums(0, n, alg, nil) {
		if s != zsum {
			t.Fatalf("RangeSums: page %d digests to %x, want the zero page's", i, s)
		}
	}
	got, _ := v.Digests(0, n, nil)
	for i, s := range got {
		if s != zsum {
			t.Fatalf("Digests: page %d is %x, want the zero page's", i, s)
		}
	}
	for i, fp := range v.Fingerprint64() {
		if fp != zfp {
			t.Fatalf("Fingerprint64: page %d is %x, want the zero page's %x", i, fp, zfp)
		}
	}
	written := newLazy(t, n)
	for i := 0; i < n; i++ {
		written.WritePage(i, zero)
	}
	if !v.MemEqual(written) || !written.MemEqual(v) || v.FirstDifference(written) != -1 {
		t.Error("MemEqual/FirstDifference against a guest written with zeros: differ")
	}
	written.WritePage(n-1, page(1))
	if v.MemEqual(written) || v.FirstDifference(written) != n-1 {
		t.Errorf("a guest differing in its last page: MemEqual true or FirstDifference %d, want %d", v.FirstDifference(written), n-1)
	}
}

// TestFreshGuestReadsZero reads a new guest through every read path, with a
// short last chunk: as New allocates it, and from NewLazy before any chunk
// is allocated, after a first write allocated the short last one, and after a
// first span fill allocated only its own.
func TestFreshGuestReadsZero(t *testing.T) {
	const pages = 2*chunkPages + 3
	zero := make([]byte, PageSize)
	t.Run("New", func(t *testing.T) {
		v := newVM(t, pages)
		if n := allocated(v); n != len(v.mem) {
			t.Errorf("%d of %d chunks allocated by New, want all", n, len(v.mem))
		}
		checkReadsZero(t, v)
	})
	t.Run("unallocated", func(t *testing.T) {
		v := newLazy(t, pages)
		checkReadsZero(t, v)
		if n := allocated(v); n != 0 {
			t.Errorf("%d chunks allocated by readers", n)
		}
	})
	t.Run("allocated", func(t *testing.T) {
		v := newLazy(t, pages)
		v.WritePage(pages-1, zero)
		checkReadsZero(t, v)
	})
	t.Run("span-filled", func(t *testing.T) {
		v := newLazy(t, pages)
		one := []checksum.Sum{alg.Page(zero)}
		if err := v.InstallRangeFrom(0, one, func(int, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		checkReadsZero(t, v)
		if n := allocated(v); n != 1 {
			t.Errorf("%d chunks allocated by a one-page span fill and readers, want 1", n)
		}
	})
}

// TestFirstWriteAllocates pins who allocates a NewLazy guest's memory: nobody
// before its first write or Allocate; a first plain write allocates only its
// chunk; a first span fill allocates only its own chunks, and every later
// writer only its own; Allocate allocates what nobody has.
func TestFirstWriteAllocates(t *testing.T) {
	const pages = 8*chunkPages + 3
	for _, name := range []string{"WritePage", "InstallPage", "InstallRange", "InstallRangeSums"} {
		t.Run(name, func(t *testing.T) {
			v := newLazy(t, pages)
			data := page(0x5A)
			switch name {
			case "WritePage":
				v.WritePage(chunkPages, data)
			case "InstallPage":
				v.InstallPage(chunkPages, data)
			case "InstallRange":
				v.InstallRange(chunkPages, data)
			case "InstallRangeSums":
				v.InstallRangeSums(chunkPages, data, []checksum.Sum{alg.Page(data)})
			}
			if n := allocated(v); n != 1 {
				t.Errorf("%d of %d chunks allocated after a first one-page write, want 1", n, len(v.mem))
			}
		})
	}
	t.Run("InstallRangeFrom", func(t *testing.T) {
		v := newLazy(t, pages)
		start, count := chunkPages-1, 2 // straddles chunks 0 and 1
		data := append(page(0x11), page(0x22)...)
		sums := []checksum.Sum{alg.Page(page(0x11)), alg.Page(page(0x22))}
		err := v.InstallRangeFrom(start, sums, func(first int, dst []byte) error {
			copy(dst, data[(first-start)*PageSize:])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := allocated(v); n != 2 {
			t.Errorf("%d chunks allocated by a span fill straddling two, want 2", n)
		}
		v.WritePage(5*chunkPages, page(0x33))
		if n := allocated(v); n != 3 {
			t.Errorf("%d chunks allocated after a later WritePage into a third, want 3", n)
		}
		buf := make([]byte, 2*PageSize)
		v.ReadRange(start, count, buf)
		if !bytes.Equal(buf, data) {
			t.Error("a later write replaced a chunk the span fill had allocated")
		}
		if v.FirstDifference(newVM(t, pages)) != start {
			t.Error("pages outside the span are not zero")
		}
		v.Allocate()
		if n := allocated(v); n != len(v.mem) {
			t.Errorf("%d of %d chunks allocated after Allocate", n, len(v.mem))
		}
		v.ReadRange(start, count, buf)
		if !bytes.Equal(buf, data) || v.FirstDifference(newVM(t, pages)) != start {
			t.Error("Allocate replaced a chunk a writer had allocated")
		}
	})
	t.Run("Allocate", func(t *testing.T) {
		v := newLazy(t, pages)
		v.Allocate()
		if n := allocated(v); n != len(v.mem) {
			t.Errorf("%d of %d chunks allocated by Allocate", n, len(v.mem))
		}
		checkReadsZero(t, v)
		if err := v.InstallRangeFrom(0, []checksum.Sum{alg.Page(page(0))}, func(int, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(zeroChunk[:], make([]byte, len(zeroChunk))) {
			t.Fatal("a span fill after Allocate wrote zeroChunk")
		}
	})
}

// TestZeroChunkNeverWritten writes a guest all over, each chunk first
// written by a different writer, then checks that a second fresh guest still
// reads zeros: every unallocated chunk of every guest is served from one
// shared zeroChunk, so a writer that wrote through it would show here.
func TestZeroChunkNeverWritten(t *testing.T) {
	const pages = 6*chunkPages + 3
	v := newLazy(t, pages)
	content := func(p int) []byte { return page(byte(p%251 + 1)) }
	span := func(start, count int) ([]byte, []checksum.Sum) {
		data := make([]byte, 0, count*PageSize)
		sums := make([]checksum.Sum, count)
		for i := range sums {
			data = append(data, content(start+i)...)
			sums[i] = alg.Page(content(start + i))
		}
		return data, sums
	}
	for p := 0; p < chunkPages; p++ {
		v.WritePage(p, content(p))
	}
	for p := chunkPages; p < 2*chunkPages; p++ {
		v.InstallPage(p, content(p))
	}
	data, _ := span(2*chunkPages, chunkPages)
	v.InstallRange(2*chunkPages, data)
	data, sums := span(3*chunkPages, chunkPages)
	v.InstallRangeSums(3*chunkPages, data, sums)
	for p := 4 * chunkPages; p < 5*chunkPages; p++ {
		v.InstallPageSum(p, content(p), alg.Page(content(p)))
	}
	data, sums = span(5*chunkPages, pages-5*chunkPages) // into the short last chunk
	err := v.InstallRangeFrom(5*chunkPages, sums, func(first int, dst []byte) error {
		copy(dst, data[(first-5*chunkPages)*PageSize:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for p := 0; p < pages; p++ {
		v.ReadPage(p, buf)
		if !bytes.Equal(buf, content(p)) {
			t.Fatalf("page %d: got %#x, want %#x", p, buf[0], content(p)[0])
		}
	}
	if !bytes.Equal(zeroChunk[:], make([]byte, len(zeroChunk))) {
		t.Fatal("zeroChunk was written")
	}
	checkReadsZero(t, newLazy(t, pages))
}

// TestSpanFillsConcurrent fills spans of chunks nobody has allocated through
// InstallRangeFrom, the way a restore does, while WritePage allocates and
// writes the other chunks and readers read them. Every byte and every
// recorded digest must come out right: no writer may replace a chunk another
// allocated, nor write memory it did not get under the lock.
func TestSpanFillsConcurrent(t *testing.T) {
	const (
		low   = 8 // chunks [0, low) are filled through InstallRangeFrom
		pages = 16*chunkPages + 5
		spanN = 100 // spans straddle chunk boundaries
	)
	v := newLazy(t, pages)
	want := make([][]byte, pages)
	for p := range want {
		want[p] = make([]byte, PageSize)
	}
	fill := func(start int) error {
		count := min(spanN, low*chunkPages-start)
		sums := make([]checksum.Sum, count)
		for i := range sums {
			want[start+i] = page(byte(0x40 + (start+i)%97))
			sums[i] = alg.Page(want[start+i])
		}
		return v.InstallRangeFrom(start, sums, func(first int, dst []byte) error {
			for i := 0; i < len(dst)/PageSize; i++ {
				copy(dst[i*PageSize:], want[first+i])
			}
			return nil
		})
	}
	if err := fill(0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for start := spanN; start < low*chunkPages; start += spanN {
			if err := fill(start); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for p := pages - 1; p >= low*chunkPages; p -= 3 {
			want[p] = page(byte(0x80 + p%89))
			v.WritePage(p, want[p])
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, chunkPages*PageSize)
		for k := 0; k < 200; k++ {
			start := low*chunkPages + k*37%(pages-low*chunkPages-chunkPages)
			v.ReadRange(start, chunkPages, buf)
			v.RangeSums(start, 8, alg, nil)
		}
	}()
	wg.Wait()
	if n := allocated(v); n != len(v.mem) {
		t.Errorf("%d of %d chunks allocated, want all: every chunk had a writer", n, len(v.mem))
	}
	buf := make([]byte, PageSize)
	for p := range want {
		v.ReadPage(p, buf)
		if !bytes.Equal(buf, want[p]) {
			t.Fatalf("page %d: got %#x, want %#x", p, buf[0], want[p][0])
		}
	}
	if got := hashedPages(v); got != pages-low*chunkPages {
		t.Errorf("%d pages without a recorded digest, want %d (those outside the filled spans)", got, pages-low*chunkPages)
	}
	auditDigests(t, v, fmt.Sprintf("fills of %d chunks beside WritePage", low))
}
