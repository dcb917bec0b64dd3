package vm

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"vecycle/internal/checksum"
)

func newVM(t *testing.T, pages int) *VM {
	t.Helper()
	v, err := New(Config{Name: "test", MemBytes: int64(pages) * PageSize, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func page(b byte) []byte {
	return bytes.Repeat([]byte{b}, PageSize)
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Name: "", MemBytes: PageSize},
		{Name: "x", MemBytes: 0},
		{Name: "x", MemBytes: -PageSize},
		{Name: "x", MemBytes: PageSize + 1},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestNewZeroMemory(t *testing.T) {
	v := newVM(t, 4)
	buf := make([]byte, PageSize)
	for i := 0; i < v.NumPages(); i++ {
		v.ReadPage(i, buf)
		if !bytes.Equal(buf, page(0)) {
			t.Fatalf("page %d not zero at boot", i)
		}
	}
	if v.DirtyCount() != 0 {
		t.Error("fresh VM has dirty pages")
	}
	if v.Name() != "test" || v.MemBytes() != 4*PageSize {
		t.Error("metadata wrong")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	v := newVM(t, 8)
	v.WritePage(3, page(0xAB))
	got := make([]byte, PageSize)
	v.ReadPage(3, got)
	if !bytes.Equal(got, page(0xAB)) {
		t.Error("read back wrong data")
	}
	v.ReadPage(2, got)
	if !bytes.Equal(got, page(0)) {
		t.Error("write leaked to neighbour page")
	}
}

func TestWritePageSizePanics(t *testing.T) {
	v := newVM(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("short write did not panic")
		}
	}()
	v.WritePage(0, []byte{1, 2, 3})
}

func TestDirtyTracking(t *testing.T) {
	v := newVM(t, 8)
	v.WritePage(1, page(1))
	v.WritePage(5, page(5))
	if v.DirtyCount() != 2 {
		t.Fatalf("DirtyCount = %d, want 2", v.DirtyCount())
	}
	bm := v.HarvestDirty()
	if !bm.Test(1) || !bm.Test(5) || bm.Count() != 2 {
		t.Error("harvest content wrong")
	}
	if v.DirtyCount() != 0 {
		t.Error("harvest did not clear the log")
	}
	// Writes after harvest dirty again.
	v.WritePage(1, page(2))
	if v.DirtyCount() != 1 {
		t.Error("post-harvest write not tracked")
	}
}

func TestInstallPageDoesNotDirty(t *testing.T) {
	v := newVM(t, 4)
	v.InstallPage(2, page(9))
	if v.DirtyCount() != 0 {
		t.Error("InstallPage marked the page dirty")
	}
	got := make([]byte, PageSize)
	v.ReadPage(2, got)
	if !bytes.Equal(got, page(9)) {
		t.Error("InstallPage did not write")
	}
}

func TestPageSumMatchesContent(t *testing.T) {
	v := newVM(t, 2)
	v.WritePage(0, page(0x7F))
	want := checksum.MD5.Page(page(0x7F))
	if got := v.PageSum(0, checksum.MD5); got != want {
		t.Errorf("PageSum = %v, want %v", got, want)
	}
}

func TestMemEqualAndFirstDifference(t *testing.T) {
	a, b := newVM(t, 4), newVM(t, 4)
	if !a.MemEqual(b) {
		t.Fatal("fresh identical VMs differ")
	}
	if d := a.FirstDifference(b); d != -1 {
		t.Fatalf("FirstDifference = %d, want -1", d)
	}
	b.WritePage(2, page(1))
	if a.MemEqual(b) {
		t.Error("differing VMs reported equal")
	}
	if d := a.FirstDifference(b); d != 2 {
		t.Errorf("FirstDifference = %d, want 2", d)
	}
}

func TestFillRandom(t *testing.T) {
	v := newVM(t, 100)
	if err := v.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	filled := 0
	for i := 0; i < v.NumPages(); i++ {
		v.ReadPage(i, buf)
		if !bytes.Equal(buf, page(0)) {
			filled++
		}
	}
	if filled != 95 {
		t.Errorf("filled %d pages, want 95", filled)
	}
	if err := v.FillRandom(1.5); err == nil {
		t.Error("out-of-range fraction accepted")
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	mk := func() *VM {
		v, err := New(Config{Name: "d", MemBytes: 64 * PageSize, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.FillRandom(0.9); err != nil {
			t.Fatal(err)
		}
		return v
	}
	if !mk().MemEqual(mk()) {
		t.Error("same seed produced different memory")
	}
}

func TestRamdiskUpdatePercent(t *testing.T) {
	v := newVM(t, 100)
	rd, err := v.NewRamdisk(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Pages() != 90 {
		t.Fatalf("ramdisk pages = %d, want 90", rd.Pages())
	}
	before := v.Fingerprint64()
	if err := rd.UpdatePercent(50); err != nil {
		t.Fatal(err)
	}
	after := v.Fingerprint64()
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			changed++
		}
	}
	if changed != 45 {
		t.Errorf("UpdatePercent(50) changed %d pages, want 45 (half of 90)", changed)
	}
	if err := rd.UpdatePercent(101); err == nil {
		t.Error("percentage above 100 accepted")
	}
}

func TestRamdiskValidation(t *testing.T) {
	v := newVM(t, 10)
	if _, err := v.NewRamdisk(0); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, err := v.NewRamdisk(1.1); err == nil {
		t.Error("fraction above 1 accepted")
	}
}

func TestTouchRandomPages(t *testing.T) {
	v := newVM(t, 64)
	v.TouchRandomPages(10)
	if v.DirtyCount() == 0 {
		t.Error("TouchRandomPages dirtied nothing")
	}
	if v.DirtyCount() > 10 {
		t.Errorf("dirtied %d pages from 10 touches", v.DirtyCount())
	}
}

func TestConcurrentWorkloadAndReads(t *testing.T) {
	// A live migration reads pages and checksums while the guest writes;
	// run both under the race detector's eye.
	v := newVM(t, 128)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		v.TouchRandomPages(500)
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, PageSize)
		for k := 0; k < 500; k++ {
			i := k % v.NumPages()
			v.ReadPage(i, buf)
			_ = v.PageSum(i, checksum.MD5)
			if k%100 == 0 {
				_ = v.HarvestDirty()
			}
		}
	}()
	wg.Wait()
}

func TestFingerprint64(t *testing.T) {
	v := newVM(t, 4)
	fp1 := v.Fingerprint64()
	if len(fp1) != 4 {
		t.Fatalf("fingerprint has %d entries", len(fp1))
	}
	if fp1[0] != fp1[1] {
		t.Error("identical zero pages hashed differently")
	}
	v.WritePage(1, page(3))
	fp2 := v.Fingerprint64()
	if fp2[1] == fp1[1] {
		t.Error("changed page kept its hash")
	}
	if fp2[0] != fp1[0] {
		t.Error("unchanged page changed hash")
	}
}

// TestRangesAcrossChunks moves ranges that straddle chunk boundaries,
// including into a short last chunk, through every range method and checks
// them page by page against ReadPage.
func TestRangesAcrossChunks(t *testing.T) {
	pages := 2*chunkPages + 3 // two full chunks and a short one
	v := newVM(t, pages)
	if v.NumPages() != pages || v.MemBytes() != int64(pages)*PageSize {
		t.Fatalf("size %d pages / %d bytes", v.NumPages(), v.MemBytes())
	}
	start, count := chunkPages-2, chunkPages+5 // ends in the last chunk
	data := make([]byte, count*PageSize)
	for i := 0; i < count; i++ {
		copy(data[i*PageSize:], page(byte(i+1)))
	}
	v.InstallRange(start, data)
	buf := make([]byte, PageSize)
	for i := 0; i < count; i++ {
		v.ReadPage(start+i, buf)
		if !bytes.Equal(buf, page(byte(i+1))) {
			t.Fatalf("page %d after InstallRange: got %#x", start+i, buf[0])
		}
	}
	got := make([]byte, count*PageSize)
	v.ReadRange(start, count, got)
	if !bytes.Equal(got, data) {
		t.Error("ReadRange across chunks differs from what was installed")
	}
	var w bytes.Buffer
	if err := v.WriteRangeTo(&w, start, count); err != nil || !bytes.Equal(w.Bytes(), data) {
		t.Errorf("WriteRangeTo across chunks: err %v, equal %v", err, bytes.Equal(w.Bytes(), data))
	}
	sums := make([]checksum.Sum, count)
	for i := range sums {
		sums[i] = checksum.Default.Page(data[i*PageSize : (i+1)*PageSize])
	}
	other := newVM(t, pages)
	other.InstallRangeSums(start, data, sums)
	if !v.MemEqual(other) || v.FirstDifference(other) != -1 {
		t.Error("InstallRangeSums across chunks differs from InstallRange")
	}
	gotSums, known := make([]checksum.Sum, count), make([]bool, count)
	other.ReadRangeDigests(start, count, got, gotSums, known, nil)
	if !bytes.Equal(got, data) || !slices.Equal(gotSums, sums) || slices.Contains(known, false) {
		t.Error("ReadRangeDigests across chunks differs from what was installed")
	}
	filled := newVM(t, pages)
	var firsts []int
	err := filled.InstallRangeFrom(start, sums, func(first int, dst []byte) error {
		if first < start || len(dst)%PageSize != 0 || first/chunkPages != (first+len(dst)/PageSize-1)/chunkPages {
			t.Errorf("fill(%d, %d bytes) is not one chunk of the span", first, len(dst))
		}
		firsts = append(firsts, first)
		copy(dst, data[(first-start)*PageSize:])
		return nil
	})
	if err != nil || !slices.Equal(firsts, []int{start, chunkPages, 2 * chunkPages}) {
		t.Errorf("InstallRangeFrom across chunks: err %v, filled from %v", err, firsts)
	}
	if !v.MemEqual(filled) {
		t.Error("InstallRangeFrom across chunks differs from InstallRange")
	}
	if got, hashed := filled.Digests(start, count, nil); hashed != 0 || !slices.Equal(got, sums) {
		t.Error("InstallRangeFrom across chunks did not record the span's digests")
	}
	other.WritePage(pages-1, page(0xEE))
	if v.MemEqual(other) || v.FirstDifference(other) != pages-1 {
		t.Errorf("a write to the short last chunk: FirstDifference %d, want %d", v.FirstDifference(other), pages-1)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("InstallRange past the last page did not panic")
			}
		}()
		v.InstallRange(pages-1, make([]byte, 2*PageSize))
	}()
	v.ReadPage(pages-1, buf)
	if !bytes.Equal(buf, page(byte(count))) {
		t.Error("the refused InstallRange wrote the last page")
	}
}
