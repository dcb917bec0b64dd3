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
func checkDigestTable(t *testing.T, v *vm.VM, alg checksum.Algorithm) {
	t.Helper()
	got, _ := v.Digests(0, v.NumPages(), alg, nil)
	want := v.RangeSums(0, v.NumPages(), alg, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("page %d: digest table says %x, the bytes digest to %x", i, got[i], want[i])
		}
	}
}

// checkTrackedResult asserts the hash-once contract after a successful
// tracked migration: the page-sum snapshot is complete, every recorded sum
// matches an independent digest of the installed memory, the guest's digest
// table is complete (a later pass over it hashes nothing),
// and the round-end pass digested nothing (every byte's sum was recycled).
func checkTrackedResult(t *testing.T, dst *vm.VM, res DestResult) {
	t.Helper()
	sums, alg := res.PageSums, res.Alg
	if len(sums) != dst.NumPages() {
		t.Fatalf("tracked migration returned %d page sums for %d pages", len(sums), dst.NumPages())
	}
	for i := 0; i < dst.NumPages(); i++ {
		if want := dst.PageSum(i, alg); sums[i] != want {
			t.Fatalf("page %d: table sum %x, independent digest %x", i, sums[i], want)
		}
	}
	checkDigestTable(t, dst, alg)
	if _, hashed := dst.Digests(0, dst.NumPages(), alg, nil); hashed != 0 {
		t.Errorf("digest table leaves %d pages to hash after a tracked arrival, want 0", hashed)
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
// XBZRLE deltas — and pins the recorded table
// against an independent rehash of the final memory.
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
				DestOptions{TrackIncoming: true, VerifyPayloads: true})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			checkTrackedResult(t, dst, res)
		}},
		{"legacy-per-page", func(t *testing.T) {
			// Range frames withheld: the same cold round lands as
			// individual msgPageFull/FullZ frames.
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(0.9); err != nil {
				t.Fatal(err)
			}
			dst := newVM(t, "vm0", pages, 2)
			_, res := migrate(t, src, dst,
				SourceOptions{NoRangeFrames: true},
				DestOptions{TrackIncoming: true, VerifyPayloads: true})
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
				DestOptions{Store: store, TrackIncoming: true, VerifyPayloads: true})
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
			base, err := srcStore.Restore("vm0", checksum.MD5, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer base.Close()
			partialUpdate(t, src, []int{3, 7, 11, 19, 23, 29, 31, 37, 41, 43})
			dst := newVM(t, "vm0", pages, 2)
			sm, res := migrate(t, src, dst,
				SourceOptions{Recycle: true, DeltaBase: base},
				DestOptions{Store: destStore, TrackIncoming: true, VerifyPayloads: true})
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

// TestSumTableUntracked: without TrackIncoming there is no table to build.
func TestSumTableUntracked(t *testing.T) {
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 64, 2)
	_, res := migrate(t, src, dst, SourceOptions{}, DestOptions{VerifyPayloads: true})
	if res.PageSums != nil {
		t.Error("untracked migration snapshotted page sums")
	}
	// Installs record into the guest's own table whether or not anything
	// tracks the arrival.
	checkDigestTable(t, dst, res.Alg)
}

// TestSumTableCorruptionTeardown: a verify failure aborts the migration
// mid-stream; no page-sum snapshot may come out of it, so no caller can feed
// a half-built digest set into SaveWithSums — and what the guest's table
// recorded before the abort is still true of the installed bytes.
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
		dres DestResult
		derr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = MigrateSource(context.Background(), evil, src, SourceOptions{})
	}()
	go func() {
		defer wg.Done()
		dres, derr = MigrateDest(context.Background(), b, dst,
			DestOptions{TrackIncoming: true, VerifyPayloads: true})
		b.Close()
	}()
	wg.Wait()
	if derr == nil {
		t.Fatal("corrupted stream accepted")
	}
	if dres.PageSums != nil {
		t.Error("aborted migration returned a page-sum snapshot")
	}
	checkDigestTable(t, dst, dres.Alg)
}

// TestSumTableSalvage: an interrupted tracked attempt leaves no snapshot;
// the resumed attempt — bootstrapping from the salvage image —
// still ends with a complete, correct one, because round one walks every
// page regardless of how the destination resolves it.
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
		DestOptions{Store: store, TrackIncoming: true, VerifyPayloads: true})
	if serr == nil || derr == nil {
		t.Fatalf("cut migration succeeded (source=%v dest=%v)", serr, derr)
	}
	if dres.SalvagePages == 0 {
		t.Fatal("no salvage progress")
	}
	if dres.PageSums != nil {
		t.Error("interrupted attempt returned a page-sum snapshot")
	}
	dst2 := newVM(t, "vm0", pages, 3)
	_, dres2 := migrate(t, src, dst2,
		SourceOptions{Recycle: true},
		DestOptions{Store: store, TrackIncoming: true, VerifyPayloads: true})
	if !src.MemEqual(dst2) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst2))
	}
	if !dres2.ResumedFromPartial {
		t.Error("destination did not report a partial bootstrap")
	}
	checkTrackedResult(t, dst2, dres2)
}

// TestSourceSentSums pins the source-side half of the lifecycle: with a
// SentSums table supplied, a completed migration leaves the table holding
// the digest of every page's final (paused) state — the exact table the
// KeepCheckpoint save hands to SaveWithSums.
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
	sent := NewSumTable()
	_, _ = migrate(t, src, dst,
		SourceOptions{SentSums: sent},
		DestOptions{VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	sums, ok := sent.Sums()
	if !ok {
		t.Fatal("source table incomplete after a clean migration")
	}
	for i := 0; i < src.NumPages(); i++ {
		if want := src.PageSum(i, sent.Alg()); sums[i] != want {
			t.Fatalf("page %d: sent sum %x, paused state digests to %x", i, sums[i], want)
		}
	}
}
