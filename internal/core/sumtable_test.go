package core

import (
	"context"
	"net"
	"sync"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// checkDigestTable asserts the digest-table invariant on v: every entry the
// table answers from equals an independent digest of the page's bytes.
// (Digests hashes the pages the table does not cover, so the comparison with
// RangeSums — which never reads the table — tests exactly the valid entries.)
func checkDigestTable(t *testing.T, v *vm.VM) {
	t.Helper()
	got, _ := v.Digests(0, v.NumPages(), nil)
	want := v.RangeSums(0, v.NumPages(), checksum.Default, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("page %d: digest table says %x, the bytes digest to %x", i, got[i], want[i])
		}
	}
}

// checkTrackedResult asserts the hash-once contract after a successful
// migration: the arrived guest's digest table is complete (a later pass over
// it hashes nothing) and true of every page, and the round-end pass digested
// nothing (every byte's sum was recycled).
func checkTrackedResult(t *testing.T, dst *vm.VM, res DestResult) {
	t.Helper()
	checkDigestTable(t, dst)
	if _, hashed := dst.Digests(0, dst.NumPages(), nil); hashed != 0 {
		t.Errorf("digest table leaves %d pages to hash after an arrival, want 0", hashed)
	}
	if res.Metrics.HashBytes != 0 {
		t.Errorf("round-end pass digested %d bytes, want 0 (all sums recorded at install)", res.Metrics.HashBytes)
	}
	// Avoided: the whole image at round end, plus every probe the table answered.
	probes := int64(res.Metrics.PagesSum) * vm.PageSize
	if got, want := res.Metrics.HashAvoidedBytes, dst.MemBytes()+probes-res.Metrics.ProbeHashBytes; got != want {
		t.Errorf("HashAvoidedBytes = %d, want %d (whole image + answered probes)", got, want)
	}
	if res.UsedCheckpoint && !res.UnionBootstrap && res.Metrics.ProbeHashBytes != 0 {
		t.Errorf("probes hashed %d bytes after a checkpoint bootstrap, want 0 (the restore seeds the table)", res.Metrics.ProbeHashBytes)
	}
}

// TestSumTableEquivalence drives every frame kind that can install a page —
// coalesced range frames, individual full pages, checksum-only recycling,
// XBZRLE deltas — and pins the arrived guest's digest table against an
// independent rehash of the final memory.
func TestSumTableEquivalence(t *testing.T) {
	const pages = 512
	scenarios := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"range-frames", func(t *testing.T) {
			// Cold first round: every page arrives as a full payload,
			// coalesced into range frames carrying per-page sum arrays.
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(0.9); err != nil {
				t.Fatal(err)
			}
			dst := newVM(t, "vm0", pages, 2)
			_, res := migrate(t, src, dst,
				SourceOptions{},
				DestOptions{VerifyPayloads: true})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			checkTrackedResult(t, dst, res)
		}},
		{"recycled", func(t *testing.T) {
			// Destination holds a warm checkpoint: most pages arrive as
			// checksum-only frames resolved out of the image, the dirtied
			// rest as payloads.
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(0.9); err != nil {
				t.Fatal(err)
			}
			store := newStore(t)
			if err := store.Save(src); err != nil {
				t.Fatal(err)
			}
			src.TouchRandomPages(40)
			dst := newVM(t, "vm0", pages, 2)
			_, res := migrate(t, src, dst,
				SourceOptions{Recycle: true},
				DestOptions{Store: store, VerifyPayloads: true})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			if !res.UsedCheckpoint {
				t.Fatal("checkpoint not used")
			}
			checkTrackedResult(t, dst, res)
		}},
		{"delta", func(t *testing.T) {
			// Both sides share a base; partially-dirtied pages travel as
			// XBZRLE deltas, installed after verification.
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(0.95); err != nil {
				t.Fatal(err)
			}
			destStore, srcStore := newStore(t), newStore(t)
			if err := destStore.Save(src); err != nil {
				t.Fatal(err)
			}
			if err := srcStore.Save(src); err != nil {
				t.Fatal(err)
			}
			base, err := srcStore.Restore("vm0", checksum.Default, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer base.Close()
			partialUpdate(t, src, []int{3, 7, 11, 19, 23, 29, 31, 37, 41, 43})
			dst := newVM(t, "vm0", pages, 2)
			sm, res := migrate(t, src, dst,
				SourceOptions{Recycle: true, DeltaBase: base},
				DestOptions{Store: destStore, VerifyPayloads: true})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			if sm.PagesDelta == 0 {
				t.Fatal("delta scenario sent no delta frames")
			}
			checkTrackedResult(t, dst, res)
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) { t.Run(engineSubtest, sc.run) })
	}
}

// TestSumTableUntracked: a destination given DestOptions{} still completes
// the arriving guest's table, so its checkpoint save can always key from it.
func TestSumTableUntracked(t *testing.T) {
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 64, 2)
	_, res := migrate(t, src, dst, SourceOptions{}, DestOptions{})
	checkTrackedResult(t, dst, res)
}

// TestSumTableCorruptionTeardown: a verify failure aborts the migration
// mid-stream; what either guest's table recorded before the abort is still
// true of its bytes, so a salvage or a later save can key from it.
func TestSumTableCorruptionTeardown(t *testing.T) {
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 64, 2)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	evil := &corruptConn{Conn: a, target: 10_000}
	var (
		wg   sync.WaitGroup
		derr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = MigrateSource(context.Background(), evil, src, SourceOptions{})
	}()
	go func() {
		defer wg.Done()
		_, derr = MigrateDest(context.Background(), b, dst,
			DestOptions{VerifyPayloads: true})
		b.Close()
	}()
	wg.Wait()
	if derr == nil {
		t.Fatal("corrupted stream accepted")
	}
	checkDigestTable(t, src)
	checkDigestTable(t, dst)
}

// TestSumTableSalvage: the attempt resumed after an interruption —
// bootstrapping from the salvage image — still ends with a complete, correct
// table, because round one walks every page regardless of how the
// destination resolves it.
func TestSumTableSalvage(t *testing.T) {
	t.Run("sequential", sumTableSalvage)
}

func sumTableSalvage(t *testing.T) {
	const pages = 512
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	dst1 := newVM(t, "vm0", pages, 2)
	dres, serr, derr := cutMigration(t, src, dst1, 1_200_000,
		SourceOptions{Recycle: true},
		DestOptions{Store: store, VerifyPayloads: true})
	if serr == nil || derr == nil {
		t.Fatalf("cut migration succeeded (source=%v dest=%v)", serr, derr)
	}
	if dres.SalvagePages == 0 {
		t.Fatal("no salvage progress")
	}
	checkDigestTable(t, dst1)
	dst2 := newVM(t, "vm0", pages, 3)
	_, dres2 := migrate(t, src, dst2,
		SourceOptions{Recycle: true},
		DestOptions{Store: store, VerifyPayloads: true})
	if !src.MemEqual(dst2) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst2))
	}
	if !dres2.ResumedFromPartial {
		t.Error("destination did not report a partial bootstrap")
	}
	checkTrackedResult(t, dst2, dres2)
}

// TestSourceSentSums pins the source-side half of the lifecycle: the engine
// writes every digest it computes back to the guest's table, so after a clean
// migration Digests over the source — like over the destination — hashes
// nothing and equals RangeSums: the departure checkpoint keys the paused state
// from it unhashed.
func TestSourceSentSums(t *testing.T) {
	t.Run(engineSubtest, sourceSentSums)
}

func sourceSentSums(t *testing.T) {
	const pages = 512
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", pages, 2)
	sm, _ := migrate(t, src, dst, SourceOptions{}, DestOptions{VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if sm.HashBytes != src.MemBytes() {
		t.Errorf("source hashed %d bytes of a guest that never migrated, want %d", sm.HashBytes, src.MemBytes())
	}
	for name, v := range map[string]*vm.VM{"source": src, "destination": dst} {
		got, hashed := v.Digests(0, pages, nil)
		if hashed != 0 {
			t.Errorf("%s: %d pages left to hash after a clean migration, want 0", name, hashed)
		}
		want := v.RangeSums(0, pages, checksum.Default, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: page %d: table says %x, the bytes digest to %x", name, i, got[i], want[i])
			}
		}
	}
}
