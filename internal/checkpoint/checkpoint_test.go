package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

func newVM(t *testing.T, name string, pages int, seed int64) *vm.VM {
	t.Helper()
	v, err := vm.New(vm.Config{Name: name, MemBytes: int64(pages) * vm.PageSize, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func fillPattern(v *vm.VM) {
	buf := make([]byte, vm.PageSize)
	for i := 0; i < v.NumPages(); i++ {
		for j := range buf {
			buf[j] = byte(i + j)
		}
		v.WritePage(i, buf)
	}
}

// bothAlgorithms runs fn once opening under the store's key algorithm (the
// index is the entry's key list) and once under another strong one (the
// rescan): every Checkpoint contract holds on either path.
func bothAlgorithms(t *testing.T, fn func(t *testing.T, alg checksum.Algorithm)) {
	t.Helper()
	for _, alg := range []checksum.Algorithm{ObjectAlgorithm, checksum.MD5} {
		t.Run(alg.String(), func(t *testing.T) { fn(t, alg) })
	}
}

// savedStore saves src into a fresh store.
func savedStore(t *testing.T, src *vm.VM) *Store {
	t.Helper()
	store, err := NewStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	return store
}

func TestSaveAndRestoreRestoresMemory(t *testing.T) {
	bothAlgorithms(t, func(t *testing.T, alg checksum.Algorithm) {
		src := newVM(t, "vm0", 16, 1)
		fillPattern(src)
		dst := newVM(t, "vm0", 16, 2)
		cp, err := savedStore(t, src).Restore("vm0", alg, dst)
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
		if !src.MemEqual(dst) {
			t.Errorf("restored memory differs at page %d", src.FirstDifference(dst))
		}
		if cp.Pages() != 16 {
			t.Errorf("Pages = %d", cp.Pages())
		}
		if cp.Algorithm() != alg {
			t.Errorf("Algorithm = %v", cp.Algorithm())
		}
		wantSource := "rescan"
		if alg == ObjectAlgorithm {
			wantSource = "keys"
		}
		if got := cp.IndexSource(); got != wantSource {
			t.Errorf("IndexSource = %q, want %q", got, wantSource)
		}
	})
}

func TestRestoreSizeMismatch(t *testing.T) {
	bothAlgorithms(t, func(t *testing.T, alg checksum.Algorithm) {
		store := savedStore(t, newVM(t, "vm0", 8, 1))
		if _, err := store.Restore("vm0", alg, newVM(t, "vm0", 16, 1)); err == nil {
			t.Error("size mismatch accepted")
		}
	})
}

func TestRestoreMissingEntry(t *testing.T) {
	store := savedStore(t, newVM(t, "vm0", 2, 1))
	if _, err := store.Restore("none", checksum.Default, nil); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing entry: err = %v, want os.ErrNotExist", err)
	}
}

func TestRestoreInvalidAlgorithm(t *testing.T) {
	store := savedStore(t, newVM(t, "vm0", 2, 1))
	if _, err := store.Restore("vm0", checksum.Algorithm(0), nil); err == nil {
		t.Error("invalid algorithm accepted")
	}
	if _, _, err := store.OpenUnion(checksum.Algorithm(0)); err == nil {
		t.Error("invalid algorithm accepted by OpenUnion")
	}
}

func TestSumSetAnnouncesEveryBlock(t *testing.T) {
	bothAlgorithms(t, func(t *testing.T, alg checksum.Algorithm) {
		src := newVM(t, "vm0", 8, 1)
		fillPattern(src)
		cp, err := savedStore(t, src).Restore("vm0", alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
		for i := 0; i < src.NumPages(); i++ {
			if !cp.SumSet().Contains(src.PageSum(i, alg)) {
				t.Errorf("page %d checksum missing from announcement", i)
			}
		}
	})
}

func TestReadBlockByChecksum(t *testing.T) {
	bothAlgorithms(t, func(t *testing.T, alg checksum.Algorithm) {
		src := newVM(t, "vm0", 8, 1)
		fillPattern(src)
		cp, err := savedStore(t, src).Restore("vm0", alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()

		want := make([]byte, vm.PageSize)
		src.ReadPage(5, want)
		data, ok, err := cp.ReadBlock(src.PageSum(5, alg))
		if err != nil || !ok {
			t.Fatalf("ReadBlock: ok=%v err=%v", ok, err)
		}
		if !bytes.Equal(data, want) {
			t.Error("ReadBlock returned wrong content")
		}
		// Unknown checksum.
		if _, ok, err := cp.ReadBlock(alg.Page([]byte("nope"))); ok || err != nil {
			t.Errorf("unknown checksum: ok=%v err=%v", ok, err)
		}
	})
}

func TestIndexDuplicateBlocks(t *testing.T) {
	// Two pages with identical content: lookup must return a valid offset.
	bothAlgorithms(t, func(t *testing.T, alg checksum.Algorithm) {
		src := newVM(t, "vm0", 4, 1)
		same := bytes.Repeat([]byte{0x42}, vm.PageSize)
		src.WritePage(1, same)
		src.WritePage(3, same)
		cp, err := savedStore(t, src).Restore("vm0", alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
		data, ok, err := cp.ReadBlock(alg.Page(same))
		if err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		if !bytes.Equal(data, same) {
			t.Error("duplicate block content wrong")
		}
	})
}

// TestIndexSortsOnFirstLookup: a checkpoint holds its sums in page order and
// builds no index until something looks a checksum up, and concurrent first
// lookups all see the sorted index.
func TestIndexSortsOnFirstLookup(t *testing.T) {
	src := filledVM(t, "vm0", 64, 1)
	cp, err := savedStore(t, src).Restore("vm0", checksum.Default, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if cp.index.entries != nil || cp.sums != nil {
		t.Fatal("index or announcement set built at open, before any use")
	}
	for i, sum := range cp.pageSums {
		if sum != src.PageSum(i, checksum.Default) {
			t.Fatalf("sum %d is not page %d's", i, i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < src.NumPages(); i += 8 {
				data, ok, err := cp.ReadBlock(src.PageSum(i, checksum.Default))
				if err != nil || !ok {
					t.Errorf("page %d: ok=%v err=%v", i, ok, err)
					continue
				}
				if checksum.Default.Page(data) != src.PageSum(i, checksum.Default) {
					t.Errorf("page %d: wrong block", i)
				}
				cp.Release(data)
			}
		}(w)
	}
	wg.Wait()
}

// Property: the index finds every inserted sum and nothing else.
func TestIndexLookupProperty(t *testing.T) {
	f := func(blocks []uint8, probe uint8) bool {
		var ix Index
		want := map[checksum.Sum]bool{}
		for i, b := range blocks {
			sum := checksum.MD5.Page([]byte{b})
			ix.add(sum, pageRef{off: int64(i) * vm.PageSize})
			want[sum] = true
		}
		for sum := range want {
			if _, ok := ix.Lookup(sum); !ok {
				return false
			}
		}
		probeSum := checksum.MD5.Page([]byte{probe, 0xFF})
		_, ok := ix.Lookup(probeSum)
		return ok == want[probeSum]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreSaveRestore(t *testing.T) {
	store, err := NewStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	src := newVM(t, "web-1", 8, 1)
	fillPattern(src)
	if store.Has("web-1") {
		t.Error("Has before Save")
	}
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	if !store.Has("web-1") {
		t.Error("Has after Save")
	}
	dst := newVM(t, "web-1", 8, 9)
	cp, err := store.Restore("web-1", checksum.Default, dst)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if !src.MemEqual(dst) {
		t.Error("store round trip lost data")
	}
}

func TestStoreRemoveAndList(t *testing.T) {
	store, err := NewStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	a := newVM(t, "a", 2, 1)
	b := newVM(t, "b", 2, 2)
	if err := store.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(b); err != nil {
		t.Fatal(err)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Errorf("List = %v", names)
	}
	if err := store.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if store.Has("a") || !store.Has("b") {
		t.Error("Remove removed wrong checkpoint")
	}
	if err := store.Remove("a"); err != nil {
		t.Errorf("double remove errored: %v", err)
	}
}

func TestStoreSanitizesNames(t *testing.T) {
	store, err := NewStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	evil := newVM(t, "../../etc/passwd", 2, 1)
	if err := store.Save(evil); err != nil {
		t.Fatal(err)
	}
	path := store.pmfPath("../../etc/passwd")
	rel, err := filepath.Rel(store.Dir(), path)
	if err != nil || len(rel) == 0 || rel[0] == '.' {
		t.Errorf("page-manifest path %q escapes store dir", path)
	}
}

func TestNewStoreEmptyDir(t *testing.T) {
	if _, err := NewStore(""); err == nil {
		t.Error("empty dir accepted")
	}
}
