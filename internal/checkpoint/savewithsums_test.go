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

// commitComplete saves v as a complete entry, waits until it is durable and
// returns what the commit did.
func commitComplete(t *testing.T, s *Store, v *vm.VM) SaveCounts {
	t.Helper()
	st := s.OpenSave(v.Name())
	counts, err := st.Commit(v, EntryComplete)
	if err == nil {
		err = st.Durable()
	}
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

// TestSaveWithSumsMatchesSave is the ingest-equivalence contract: a save of a
// guest whose digest table is complete — as a migration leaves it, on either
// side — must produce a byte-identical page manifest and an identically
// restorable entry to a save that hashes every page, while hashing nothing.
// SaveWithSums is Save: the table it is handed is ignored.
func TestSaveWithSumsMatchesSave(t *testing.T) {
	const pages = 64
	v := filledVM(t, "a", pages, 1)

	sPlain := newTestStore(t)
	// The plain save keys every page by hashing it, and records nothing.
	if got := commitComplete(t, sPlain, v); got.Hashed != pages {
		t.Errorf("plain save hashed %d pages, want %d", got.Hashed, pages)
	}
	// Complete the table now.
	if got := v.CompleteDigests(); got != pages {
		t.Fatalf("CompleteDigests hashed %d pages after a save, want %d", got, pages)
	}
	sPre := newTestStore(t)
	if err := sPre.SaveWithSums(v, ObjectAlgorithm, make([]checksum.Sum, pages)); err != nil {
		t.Fatal(err)
	}

	plain, err := os.ReadFile(filepath.Join(sPlain.Dir(), "a"+pmfSuffix))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := os.ReadFile(filepath.Join(sPre.Dir(), "a"+pmfSuffix))
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

	// Dedup identity is the same either way: re-saving the unchanged guest
	// from its complete table hashes nothing and adds no bytes to a pool the
	// rehashing path keyed — every page is already pooled.
	before := sPlain.Stats()
	if got := commitComplete(t, sPlain, v); got.Hashed != 0 || got.Pooled != pages {
		t.Errorf("table re-save hashed %d pages and found %d pooled, want 0 and %d", got.Hashed, got.Pooled, pages)
	}
	if got := sPlain.Stats().PhysicalBytes - before.PhysicalBytes; got != 0 {
		t.Errorf("identical re-save grew the pool by %d bytes", got)
	}
}

// TestSaveWithSumsFallback: whatever table SaveWithSums is handed — wrong
// length, no algorithm, another algorithm, strong or not — it keys the guest
// as Save does: from its digest table, which knows nothing of these freshly
// written pages, so every page is hashed. It never fails and never keys pages
// by the wrong digest.
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
			s := newTestStore(t)
			if err := s.SaveWithSums(v, tc.alg, tc.sums); err != nil {
				t.Fatal(err)
			}
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
// and reports how many it hashed.
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
	s := newTestStore(t)
	if got := commitComplete(t, s, v); got.Hashed != len(rewritten) {
		t.Errorf("save hashed %d pages, want the %d rewritten", got.Hashed, len(rewritten))
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
		"salvage": func(s *Store) error { return savePartial(s, v) },
	}
	for saveName, save := range saves {
		for _, alg := range []checksum.Algorithm{ObjectAlgorithm, checksum.MD5} {
			for _, install := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%v/install=%v", saveName, alg, install), func(t *testing.T) {
					s := newTestStore(t)
					if err := save(s); err != nil {
						t.Fatal(err)
					}
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
