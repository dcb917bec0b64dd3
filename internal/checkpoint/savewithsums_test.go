package checkpoint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// vmSums digests every page of v under alg — the table a migration's
// hash-once lifecycle would have recorded for free.
func vmSums(t *testing.T, v *vm.VM, alg checksum.Algorithm) []checksum.Sum {
	t.Helper()
	sums := make([]checksum.Sum, v.NumPages())
	for i := range sums {
		sums[i] = v.PageSum(i, alg)
	}
	return sums
}

// metricsStore builds a store in its own directory with a fakeMetrics sink
// attached, returning both plus the directory.
func metricsStore(t *testing.T) (*Store, *fakeMetrics, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "s")
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := &fakeMetrics{store: s}
	s.SetMetrics(m)
	return s, m, dir
}

// TestSaveWithSumsMatchesSave is the ingest-equivalence contract: a save of a
// guest whose digest table is complete — as a migration leaves it, on either
// side — must produce a byte-identical page manifest and an identically
// restorable entry to a save that hashes every page, while hashing nothing.
// SaveWithSums is Save: the table it is handed is ignored.
func TestSaveWithSumsMatchesSave(t *testing.T) {
	const pages = 64
	v := filledVM(t, "a", pages, 1)

	sPlain, mPlain, dirPlain := metricsStore(t)
	if err := sPlain.Save(v); err != nil {
		t.Fatal(err)
	}
	// The plain save hashed but recorded nothing; complete the table now.
	if got := v.CompleteDigests(); got != pages {
		t.Fatalf("CompleteDigests hashed %d pages after a save, want %d", got, pages)
	}
	sPre, mPre, dirPre := metricsStore(t)
	if err := sPre.SaveWithSums(v, ObjectAlgorithm, make([]checksum.Sum, pages)); err != nil {
		t.Fatal(err)
	}

	plain, err := os.ReadFile(filepath.Join(dirPlain, "a"+pmfSuffix))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := os.ReadFile(filepath.Join(dirPre, "a"+pmfSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, pre) {
		t.Error("a save keyed from a complete table wrote a different page manifest than a rehashing save")
	}

	// Both entries restore bit exactly and announce the guest's sums.
	for name, s := range map[string]*Store{"plain": sPlain, "table": sPre} {
		dst := newVM(t, "a", pages, 99)
		cp, err := s.Restore("a", checksum.Default, dst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !v.MemEqual(dst) {
			t.Errorf("%s: restore lost data at page %d", name, v.FirstDifference(dst))
		}
		for i := 0; i < pages; i++ {
			if !cp.SumSet().Contains(v.PageSum(i, checksum.Default)) {
				t.Errorf("%s: page %d missing from the announcement", name, i)
			}
		}
		cp.Close()
	}

	// Accounting: the plain save digested the image once; the save keyed
	// from the complete table hashed nothing.
	mem := v.MemBytes()
	mPlain.mu.Lock()
	if len(mPlain.hashed) != 1 || mPlain.hashed["save_keys"] != mem || mPlain.unhashed != 0 {
		t.Errorf("plain save accounting = %v avoided=%d, want one keying pass", mPlain.hashed, mPlain.unhashed)
	}
	mPlain.mu.Unlock()
	mPre.mu.Lock()
	if len(mPre.hashed) != 0 || mPre.unhashed != mem {
		t.Errorf("table save accounting = %v avoided=%d, want nothing hashed and one guest avoided", mPre.hashed, mPre.unhashed)
	}
	mPre.mu.Unlock()

	// Dedup identity is the same either way: re-saving the unchanged guest
	// from its complete table adds no bytes to a pool the rehashing path
	// keyed.
	before := sPlain.Stats()
	if err := sPlain.Save(v); err != nil {
		t.Fatal(err)
	}
	if got := sPlain.Stats().PhysicalBytes - before.PhysicalBytes; got != 0 {
		t.Errorf("identical re-save grew the pool by %d bytes", got)
	}
}

// TestSaveWithSumsFallback: whatever table SaveWithSums is handed — wrong
// length, no algorithm, another algorithm, strong or not — it keys the guest
// as Save does: from its digest table, which knows nothing of these freshly
// written pages, so every page is hashed once, accounted as save_keys. It
// never fails and never keys pages by the wrong digest.
func TestSaveWithSumsFallback(t *testing.T) {
	const pages = 8
	v := filledVM(t, "a", pages, 1)
	cases := map[string]struct {
		alg  checksum.Algorithm
		sums []checksum.Sum
	}{
		"nil-table":   {ObjectAlgorithm, nil},
		"short-table": {ObjectAlgorithm, make([]checksum.Sum, pages-1)},
		"zero-alg":    {0, make([]checksum.Sum, pages)},
		"weak-alg":    {checksum.FNV, vmSums(t, v, checksum.FNV)},
		"md5":         {checksum.MD5, vmSums(t, v, checksum.MD5)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			s, m, _ := metricsStore(t)
			if err := s.SaveWithSums(v, tc.alg, tc.sums); err != nil {
				t.Fatal(err)
			}
			mem := v.MemBytes()
			m.mu.Lock()
			if len(m.hashed) != 1 || m.hashed["save_keys"] != mem || m.unhashed != 0 {
				t.Errorf("accounting = %v avoided=%d, want one fallback rehash", m.hashed, m.unhashed)
			}
			m.mu.Unlock()
			for i, k := range s.keys["a"] {
				if k != v.PageSum(i, ObjectAlgorithm) {
					t.Fatalf("page %d keyed %s, want its %v digest", i, k, ObjectAlgorithm)
				}
			}
			dst := newVM(t, "a", pages, 99)
			cp, err := s.Restore("a", checksum.Default, dst)
			if err != nil {
				t.Fatal(err)
			}
			cp.Close()
			if !v.MemEqual(dst) {
				t.Error("fallback save lost data")
			}
		})
	}
}

// TestSaveKeysFromDigestTable: a save handed no sums keys the guest from its
// digest table, hashing only the pages written since the table was complete,
// and books every page exactly once — hashed plus avoided is the guest.
func TestSaveKeysFromDigestTable(t *testing.T) {
	const pages = 64
	v := filledVM(t, "a", pages, 1)
	v.CompleteDigests()
	rewritten := []int{3, 40}
	for _, p := range rewritten {
		data := make([]byte, vm.PageSize)
		data[0] = byte(p)
		v.WritePage(p, data)
	}
	s, m, _ := metricsStore(t)
	if err := s.Save(v); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	hashed, avoided := m.hashed["save_keys"], m.unhashed
	m.mu.Unlock()
	if want := int64(len(rewritten)) * vm.PageSize; hashed != want || hashed+avoided != v.MemBytes() {
		t.Errorf("save hashed %d bytes and avoided %d, want %d hashed of %d", hashed, avoided, want, v.MemBytes())
	}
	for i, k := range s.keys["a"] {
		if k != v.PageSum(i, ObjectAlgorithm) {
			t.Fatalf("page %d keyed %s, want its %v digest", i, k, ObjectAlgorithm)
		}
	}
}

// TestRestoreSumsMatchGuest: whatever path produced them, the checksums a
// restore serves are the restored guest's own — the reference RangeSums of the
// bytes it installed — page for page: in the checkpoint's index, in its
// announcement, and in the digest table it seeded the guest with. Key-algorithm
// opens (sums are the entry's keys) and other-algorithm opens (rescan), complete
// and salvage entries, with and without a guest to install into.
func TestRestoreSumsMatchGuest(t *testing.T) {
	const pages = 600 // more than two restore spans, so the fan-out runs
	v := filledVM(t, "a", pages, 1)
	zero := make([]byte, vm.PageSize)
	v.WritePage(7, zero) // duplicates and the memoized zero digest
	v.WritePage(300, zero)
	saves := map[string]func(*Store) error{
		"complete": func(s *Store) error { return s.Save(v) },
		"withsums": func(s *Store) error {
			return s.SaveWithSums(v, ObjectAlgorithm, vmSums(t, v, ObjectAlgorithm))
		},
		"salvage": func(s *Store) error { return s.SaveSalvage(v) },
	}
	for saveName, save := range saves {
		for _, alg := range []checksum.Algorithm{ObjectAlgorithm, checksum.MD5} {
			for _, install := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%v/install=%v", saveName, alg, install), func(t *testing.T) {
					s, m, _ := metricsStore(t)
					if err := save(s); err != nil {
						t.Fatal(err)
					}
					defer func() {
						// A rescan is accounted, a key-list open has nothing to account.
						var want int64
						if alg != ObjectAlgorithm {
							want = v.MemBytes()
						}
						m.mu.Lock()
						defer m.mu.Unlock()
						if m.hashed["restore"] != want {
							t.Errorf("restore hashed %d bytes, want %d", m.hashed["restore"], want)
						}
					}()
					var dst *vm.VM
					if install {
						dst = newVM(t, "a", pages, 99)
					}
					cp, err := s.Restore("a", alg, dst)
					if err != nil {
						t.Fatal(err)
					}
					defer cp.Close()
					guest := v
					if install {
						if !v.MemEqual(dst) {
							t.Fatalf("restore lost data at page %d", v.FirstDifference(dst))
						}
						guest = dst
					}
					want := guest.RangeSums(0, pages, alg, nil)
					for i, sum := range cp.pageSums {
						if sum != want[i] {
							t.Fatalf("index sum of page %d = %s, want %s", i, sum, want[i])
						}
					}
					distinct := checksum.NewSet(pages)
					distinct.AddAll(want)
					if cp.SumSet().Len() != distinct.Len() || cp.SumSet().IntersectCount(distinct) != distinct.Len() {
						t.Errorf("announcement holds %d sums, guest has %d distinct", cp.SumSet().Len(), distinct.Len())
					}
					if install {
						// The key path seeds the digest table; the rescan
						// records nothing, the table holding store keys only.
						got, hashed := dst.Digests(0, pages, nil)
						if alg != ObjectAlgorithm {
							if hashed != pages {
								t.Errorf("a %v rescan seeded %d digest-table entries", alg, pages-hashed)
							}
							return
						}
						if hashed != 0 {
							t.Errorf("restore left %d pages without a digest", hashed)
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("guest digest table page %d = %s, want %s", i, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}
