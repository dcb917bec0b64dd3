package checkpoint

import (
	"path/filepath"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// BenchmarkOpen measures the §3.3 index build on a 64 MiB checkpoint, cold
// (full pool read + rehash: an open under an algorithm the store does not key
// by, here MD5) versus warm (under the key algorithm: the index is the
// entry's in-memory key list, no file read and no hash).
func BenchmarkOpen(b *testing.B) {
	const pages = 16384 // 64 MiB at 4 KiB pages
	store, err := NewStore(filepath.Join(b.TempDir(), "ckpts"))
	if err != nil {
		b.Fatal(err)
	}
	src, err := vm.New(vm.Config{Name: "bench", MemBytes: pages * vm.PageSize, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if err := src.FillRandom(0.5); err != nil {
		b.Fatal(err)
	}
	if err := store.Save(src); err != nil {
		b.Fatal(err)
	}

	for _, arm := range []struct {
		name string
		alg  checksum.Algorithm
	}{{"cold", checksum.MD5}, {"warm", ObjectAlgorithm}} {
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(pages * vm.PageSize)
			for i := 0; i < b.N; i++ {
				cp, err := store.Restore("bench", arm.alg, nil)
				if err != nil {
					b.Fatal(err)
				}
				cp.Close()
			}
		})
	}
}

// BenchmarkSaveWarm measures re-checkpointing a VM whose content is already
// fully resident in the pool — the steady state after every successful
// migration, where the save writes no segment and the digest pass is the
// whole cost. `rehash` is the plain Save path (the content-keying scan);
// `withsums` hands Save the table a tracked migration records for free, so
// it hashes nothing. The hash-once acceptance bar is withsums ≥ 1.5× rehash;
// tools/benchgate enforces it on the committed recording.
func BenchmarkSaveWarm(b *testing.B) {
	const pages = 16384 // 64 MiB at 4 KiB pages
	store, err := NewStore(filepath.Join(b.TempDir(), "ckpts"))
	if err != nil {
		b.Fatal(err)
	}
	src, err := vm.New(vm.Config{Name: "bench", MemBytes: pages * vm.PageSize, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if err := src.FillRandom(0.5); err != nil {
		b.Fatal(err)
	}
	if err := store.Save(src); err != nil {
		b.Fatal(err)
	}
	// The table a migration's TrackIncoming/SentSums recording supplies.
	sums := make([]checksum.Sum, pages)
	for i := range sums {
		sums[i] = src.PageSum(i, ObjectAlgorithm)
	}

	b.Run("rehash", func(b *testing.B) {
		b.SetBytes(pages * vm.PageSize)
		for i := 0; i < b.N; i++ {
			if err := store.Save(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("withsums", func(b *testing.B) {
		b.SetBytes(pages * vm.PageSize)
		for i := 0; i < b.N; i++ {
			if err := store.SaveWithSums(src, ObjectAlgorithm, sums); err != nil {
				b.Fatal(err)
			}
		}
	})
}
