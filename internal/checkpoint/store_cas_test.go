package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// copyPages copies page frames [0, n) from src into dst.
func copyPages(t *testing.T, src, dst *vm.VM, n int) {
	t.Helper()
	buf := make([]byte, vm.PageSize)
	for i := 0; i < n; i++ {
		src.ReadPage(i, buf)
		dst.WritePage(i, buf)
	}
}

// TestDedupAcrossVMs is the tentpole assertion: two VMs sharing half their
// content must cost the disk less than the sum of their logical sizes, and
// both must still round-trip bit exactly.
func TestDedupAcrossVMs(t *testing.T) {
	s := newTestStore(t)
	a := filledVM(t, "a", 8, 1)
	b := filledVM(t, "b", 8, 2)
	copyPages(t, a, b, 4) // b's first 4 pages now duplicate a's

	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	counts, err := s.OpenSave("b").Commit(b, EntryComplete)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Pooled != 4 {
		t.Errorf("b's commit pooled %d pages, want 4", counts.Pooled)
	}
	st := s.Stats()
	if st.LogicalBytes != 16*testPage {
		t.Errorf("LogicalBytes = %d, want %d", st.LogicalBytes, 16*testPage)
	}
	if st.PhysicalBytes != 12*testPage {
		t.Errorf("PhysicalBytes = %d, want %d (4 shared pages stored once)", st.PhysicalBytes, 12*testPage)
	}
	if r := st.DedupRatio(); r <= 1.0 {
		t.Errorf("DedupRatio = %v, want > 1.0", r)
	}
	for name, src := range map[string]*vm.VM{"a": a, "b": b} {
		dst := newVM(t, name, 8, 99)
		cp, err := s.Restore(name, checksum.Default, dst)
		if err != nil {
			t.Fatal(err)
		}
		cp.Close()
		if !src.MemEqual(dst) {
			t.Errorf("%s: dedup'd checkpoint lost data at page %d", name, src.FirstDifference(dst))
		}
	}
	// UniqueBytes: each entry uniquely owns its 4 private pages.
	info, _ := s.Entry("a")
	if info.UniqueBytes != 4*testPage {
		t.Errorf("UniqueBytes = %d, want %d", info.UniqueBytes, 4*testPage)
	}
}

// TestDedupAcrossGenerations covers the paper's own redundancy claim: a
// re-save after partial mutation only writes the changed pages.
func TestDedupAcrossGenerations(t *testing.T) {
	s := newTestStore(t)
	v := filledVM(t, "a", 8, 1)
	if err := s.Save(v); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	// Mutate 6 of 8 pages, re-save: only those 6 should cost bytes.
	other := filledVM(t, "tmp", 6, 7)
	copyPages(t, other, v, 6)
	if err := s.Save(v); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if got := after.PhysicalBytes - before.PhysicalBytes; got != 6*testPage {
		t.Errorf("re-save grew pool by %d bytes, want %d", got, 6*testPage)
	}
	// The superseded pages are dead until GC; the old segment is 75 % dead,
	// so a pass compacts it down to the 2 still-live pages.
	rep, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reclaimed() || rep.PagesReclaimed != 6 {
		t.Errorf("GC report = %+v, want 6 pages reclaimed", rep)
	}
	if got := s.Stats().PhysicalBytes; got != 8*testPage {
		t.Errorf("post-GC PhysicalBytes = %d, want %d", got, 8*testPage)
	}
	dst := newVM(t, "a", 8, 99)
	cp, err := s.Restore("a", checksum.Default, dst)
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()
	if !v.MemEqual(dst) {
		t.Error("restore after GC lost data")
	}
}

func TestGCDeletesFullyDeadSegments(t *testing.T) {
	s := newTestStore(t)
	if err := s.Save(filledVM(t, "a", 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(filledVM(t, "b", 4, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	rep, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SegmentsDeleted != 1 || rep.PagesReclaimed != 4 {
		t.Errorf("GC report = %+v, want 1 segment / 4 pages", rep)
	}
	if got := s.Stats().PhysicalBytes; got != 4*testPage {
		t.Errorf("PhysicalBytes = %d, want %d", got, 4*testPage)
	}
	dst := newVM(t, "b", 4, 99)
	cp, err := s.Restore("b", checksum.Default, dst)
	if err != nil {
		t.Fatalf("survivor broken after GC: %v", err)
	}
	cp.Close()
	// An idle second pass reclaims nothing.
	rep, err = s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reclaimed() {
		t.Errorf("idle GC reclaimed: %+v", rep)
	}
}

func TestGCCompactsMostlyDeadSegment(t *testing.T) {
	s := newTestStore(t)
	a := filledVM(t, "a", 8, 1)
	b := filledVM(t, "b", 8, 2)
	copyPages(t, a, b, 2) // b keeps 2 of a's pages alive
	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	// a's segment: 8 pages, 2 still referenced by b — 75 % dead, compact.
	rep, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SegmentsCompacted != 1 || rep.PagesReclaimed != 6 {
		t.Errorf("GC report = %+v, want 1 compaction / 6 pages", rep)
	}
	if got := s.Stats().PhysicalBytes; got != 8*testPage {
		t.Errorf("PhysicalBytes = %d, want %d", got, 8*testPage)
	}
	dst := newVM(t, "b", 8, 99)
	cp, err := s.Restore("b", checksum.Default, dst)
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()
	if !b.MemEqual(dst) {
		t.Error("compaction corrupted a surviving entry")
	}
}

// readCountFS is a faultfs.FS that counts the ReadAt calls made on the files
// opened through it, by base name.
type readCountFS struct {
	faultfs.FS
	mu    sync.Mutex
	reads map[string]int
}

type readCountFile struct {
	faultfs.File
	fs   *readCountFS
	name string
}

func (f readCountFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	f.fs.reads[f.name]++
	f.fs.mu.Unlock()
	return f.File.ReadAt(p, off)
}

func (c *readCountFS) Open(name string) (faultfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return readCountFile{File: f, fs: c, name: filepath.Base(name)}, nil
}

// TestGCCompactReadsRuns: compaction reads a segment's live slots with one
// payload ReadAt per run of back-to-back slots, up to restoreSpanPages of them,
// not one per slot — and the compacted entries still round-trip.
func TestGCCompactReadsRuns(t *testing.T) {
	counter := &readCountFS{FS: faultfs.OS, reads: map[string]int{}}
	s, err := NewStoreFS(filepath.Join(t.TempDir(), "s"), counter)
	if err != nil {
		t.Fatal(err)
	}
	// a keeps runs of 4 slots out of every 8 (128 runs, none straddling a
	// 256-slot span); b keeps one run of 300 slots, read as 256 + 44.
	cases := []struct {
		name      string
		pages     int
		rewritten func(i int) bool
		reads     int
	}{
		{"a", 1024, func(i int) bool { return i%8 >= 4 }, 128},
		{"b", 700, func(i int) bool { return i >= 300 }, 2},
	}
	segs := map[string]string{}
	vms := map[string]*vm.VM{}
	for n, tc := range cases {
		v := filledVM(t, tc.name, tc.pages, int64(n+1))
		if err := s.Save(v); err != nil {
			t.Fatal(err)
		}
		segs[tc.name] = s.objects[s.keys[tc.name][0]].seg
		fresh := filledVM(t, "fresh", tc.pages, int64(n+10))
		buf := make([]byte, vm.PageSize)
		for i := 0; i < tc.pages; i++ {
			if tc.rewritten(i) {
				fresh.ReadPage(i, buf)
				v.WritePage(i, buf)
			}
		}
		if err := s.Save(v); err != nil {
			t.Fatal(err)
		}
		vms[tc.name] = v
	}
	counter.mu.Lock()
	clear(counter.reads)
	counter.mu.Unlock()
	rep, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SegmentsCompacted != 2 {
		t.Fatalf("GC report = %+v, want both first segments compacted", rep)
	}
	for _, tc := range cases {
		if got := counter.reads[segs[tc.name]]; got != tc.reads {
			t.Errorf("%s: compacting %s made %d ReadAt calls, want %d (one per run)", tc.name, segs[tc.name], got, tc.reads)
		}
		dst := newVM(t, tc.name, tc.pages, 99)
		cp, err := s.Restore(tc.name, checksum.Default, dst)
		if err != nil {
			t.Fatal(err)
		}
		cp.Close()
		if !vms[tc.name].MemEqual(dst) {
			t.Errorf("%s: compaction lost data at page %d", tc.name, vms[tc.name].FirstDifference(dst))
		}
	}
}

// TestGCCrashMidCompact kills the compaction's segment rename and asserts
// the reopened store still serves everything from the old layout.
func TestGCCrashMidCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := filledVM(t, "a", 8, 1)
	b := filledVM(t, "b", 8, 2)
	copyPages(t, a, b, 2)
	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("simulated crash")
	disarm := setKillHook(t, func(p string) error {
		if p == "image-renamed" {
			return boom
		}
		return nil
	})
	_, err = s.GC()
	disarm()
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("killed GC error = %v, want the simulated crash", err)
	}
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "b", 8, 99)
	cp, err := s2.Restore("b", checksum.Default, dst)
	if err != nil {
		t.Fatalf("entry lost to a crashed GC: %v", err)
	}
	cp.Close()
	if !b.MemEqual(dst) {
		t.Error("crashed GC corrupted a surviving entry")
	}
	// The interrupted compaction's work is re-doable.
	if _, err := s2.GC(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenUnionServesResidentContent(t *testing.T) {
	bothAlgorithms(t, testOpenUnionServesResidentContent)
}

// testOpenUnionServesResidentContent: the union serves every resident page by
// its store key, whatever algorithm the subtest names — and, under any other,
// announces none of that algorithm's digests: it speaks keys only.
func testOpenUnionServesResidentContent(t *testing.T, alg checksum.Algorithm) {
	s := newTestStore(t)
	// Empty store: no union.
	cp, names, skipped := s.OpenUnion()
	if cp != nil || names != nil || skipped != nil {
		t.Fatalf("empty union = %v, %v, skipped %v", cp, names, skipped)
	}
	a := filledVM(t, "a", 4, 1)
	b := filledVM(t, "b", 4, 2)
	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := savePartial(s, b); err != nil {
		t.Fatal(err)
	}
	cp, names, skipped = s.OpenUnion()
	if skipped != nil {
		t.Fatalf("union skipped entries of a healthy store: %v", skipped)
	}
	defer cp.Close()
	if len(names) != 2 {
		t.Fatalf("union covers %v, want both entries", names)
	}
	// Every page of both residents resolves out of the union.
	for name, src := range map[string]*vm.VM{"a": a, "b": b} {
		for i := 0; i < src.NumPages(); i++ {
			if other := src.PageSum(i, alg); alg != ObjectAlgorithm && cp.SumSet().Contains(other) {
				t.Fatalf("%s page %d: union announces its %v digest", name, i, alg)
			}
			sum := src.PageSum(i, ObjectAlgorithm)
			if !cp.SumSet().Contains(sum) {
				t.Fatalf("%s page %d missing from union announcement", name, i)
			}
			want := make([]byte, vm.PageSize)
			src.ReadPage(i, want)
			got, ok, err := cp.ReadBlock(sum)
			if err != nil || !ok {
				t.Fatalf("%s page %d: ok=%v err=%v", name, i, ok, err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s page %d: union served wrong bytes", name, i)
			}
			cp.Release(got)
		}
	}
	// The union has no frame geometry: it serves blocks by content only.
	if cp.Pages() != 0 {
		t.Errorf("union Pages = %d, want 0", cp.Pages())
	}
}

func TestOpenUnionSkipsQuarantined(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(filledVM(t, "good", 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(filledVM(t, "bad", 4, 2)); err != nil {
		t.Fatal(err)
	}
	tamperObject(t, s, "bad", 1)
	s2, err := NewStore(dir) // recovery quarantines "bad"
	if err != nil {
		t.Fatal(err)
	}
	cp, names, skipped := s2.OpenUnion()
	if skipped != nil {
		t.Fatalf("union skipped %v; a quarantined entry is left out, not skipped", skipped)
	}
	defer cp.Close()
	if len(names) != 1 || names[0] != "good" {
		t.Errorf("union covers %v, want only the good entry", names)
	}
}

// TestStoreReportsWhatItDid: the store reports through return values — a
// commit's SaveCounts name the pages it found pooled, a GCReport says whether
// the pass reclaimed anything, and OpenUnion names the fault of each entry it
// skipped.
func TestStoreReportsWhatItDid(t *testing.T) {
	inj := faultfs.NewInjector()
	s, err := NewStoreFS(filepath.Join(t.TempDir(), "s"), inj.FS(faultfs.OS))
	if err != nil {
		t.Fatal(err)
	}
	a := filledVM(t, "a", 4, 1)
	b := filledVM(t, "b", 4, 2)
	copyPages(t, a, b, 2)
	if got := commitComplete(t, s, a); got.Pooled != 0 || got.Hashed != 4 {
		t.Errorf("first save: %+v, want 4 pages hashed and none pooled", got)
	}
	if got := commitComplete(t, s, b); got.Pooled != 2 {
		t.Errorf("second save found %d pages pooled, want the 2 it shares", got.Pooled)
	}
	if rep, err := s.GC(); err != nil || rep.Reclaimed() {
		t.Errorf("GC of a store with nothing dead = %+v, %v; want a clean pass", rep, err)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if rep, err := s.GC(); err != nil || !rep.Reclaimed() {
		t.Errorf("GC after a removal = %+v, %v; want a pass that reclaimed", rep, err)
	}

	// Every segment open fails: the union skips the entry and says why.
	inj.Arm(faultfs.Fault{Op: faultfs.OpOpen, Path: ".seg", Err: faultfs.ErrEIO, Times: -1})
	cp, names, skipped := s.OpenUnion()
	if cp != nil || names != nil || len(skipped) != 1 || skipped[0] != "eio" {
		t.Errorf("union over an unreadable entry = %v, %v, skipped %v; want none and one eio skip", cp, names, skipped)
	}
}

// TestConcurrentSaveGCRestore hammers Save, GC, Restore, OpenUnion and
// Stats from concurrent goroutines. Run under -race; invariants: no panics,
// no unexpected errors, restores that succeed return coherent checkpoints.
func TestConcurrentSaveGCRestore(t *testing.T) {
	s := newTestStore(t)
	seed := filledVM(t, "vm0", 8, 1)
	if err := s.Save(seed); err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	wg.Add(4)
	go func() { // saver: churns entries so GC has work
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			v := filledVM(t, fmt.Sprintf("vm%d", i%3), 8, int64(i+2))
			if err := s.Save(v); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() { // collector
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := s.GC(); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() { // restorer: vm0 always exists in some generation
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// Alternate the key-list open and the rescan.
			cp, err := s.Restore("vm0", []checksum.Algorithm{checksum.Default, checksum.MD5}[i%2], nil)
			if err != nil {
				errc <- err
				return
			}
			if cp.SumSet().Len() == 0 {
				errc <- fmt.Errorf("empty restore index")
			}
			cp.Close()
		}
	}()
	go func() { // union + stats reader
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			cp, _, skipped := s.OpenUnion()
			if skipped != nil {
				errc <- fmt.Errorf("union skipped entries: %v", skipped)
				return
			}
			if cp != nil {
				cp.Close()
			}
			_ = s.Stats()
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// The store is still coherent after the storm.
	if _, err := s.Scrub(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRemoveDuringRestore races Store.Remove — and the GC that
// deletes the segments it orphaned — against Store.Restore and
// Store.OpenUnion. A key-algorithm Restore hands out the entry's in-memory
// key list and every open reads its segments outside the store lock, so
// either outcome is legal — a not-found error, or a checkpoint that serves
// exactly what was saved — but never a wrong index, a short read, a panic or
// a data race. Run under -race.
func TestConcurrentRemoveDuringRestore(t *testing.T) {
	const pages = 32
	algs := []checksum.Algorithm{checksum.Default, checksum.MD5}
	for round := 0; round < 16; round++ {
		alg := algs[round%2] // the key-list open, then the rescan
		s := newTestStore(t)
		src := filledVM(t, "vm0", pages, int64(round+1))
		if err := s.Save(src); err != nil {
			t.Fatal(err)
		}
		want := src.RangeSums(0, pages, alg, nil)
		keys := src.RangeSums(0, pages, ObjectAlgorithm, nil)
		var dst *vm.VM
		if round%4 >= 2 {
			dst = newVM(t, "vm0", pages, 99)
		}

		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			if err := s.Remove("vm0"); err != nil {
				t.Errorf("Remove: %v", err)
			}
			if _, err := s.GC(); err != nil {
				t.Errorf("GC: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			cp, err := s.Restore("vm0", alg, dst)
			if err != nil {
				if !errors.Is(err, os.ErrNotExist) {
					t.Errorf("raced Restore: %v", err)
				}
				return // the removed side of the race
			}
			defer cp.Close()
			if cp.Pages() != pages {
				t.Errorf("raced restore has %d pages, want %d", cp.Pages(), pages)
			}
			buf := make([]byte, vm.PageSize)
			for i, sum := range want {
				if !cp.SumSet().Contains(sum) {
					t.Errorf("raced restore: page %d missing from the index", i)
					return
				}
				// The open handles outlive the unlinked segments.
				src.ReadPage(i, buf)
				if got, ok, err := cp.ReadBlock(sum); err != nil || !ok || !bytes.Equal(got, buf) {
					t.Errorf("raced restore: ReadBlock(page %d) ok=%v err=%v", i, ok, err)
					return
				}
				if dst != nil && dst.PageSum(i, alg) != sum {
					t.Errorf("raced restore installed the wrong page %d", i)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			cp, names, skipped := s.OpenUnion()
			if skipped != nil {
				t.Errorf("raced OpenUnion skipped %v", skipped)
				return
			}
			if cp == nil {
				return // the removed side of the race
			}
			defer cp.Close()
			if len(names) != 1 || names[0] != "vm0" {
				t.Errorf("raced union covers %v, want [vm0]", names)
			}
			for i, sum := range keys {
				if !cp.SumSet().Contains(sum) {
					t.Errorf("raced union: page %d missing from the index", i)
					return
				}
			}
		}()
		wg.Wait()
	}
}

// TestOpenWritesNothing: an index-only Restore and an OpenUnion read the
// store and write nothing to it — no file is created, removed, resized or
// has its mtime moved. Every file is first aged to one fixed time, so a
// write at any resolution shows.
func TestOpenWritesNothing(t *testing.T) {
	s := newTestStore(t)
	saveVM(t, s, "a", 4)
	saveVM(t, s, "b", 4)
	type stamp struct {
		size  int64
		mtime time.Time
	}
	old := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	snapshot := func() map[string]stamp {
		t.Helper()
		files := map[string]stamp{}
		err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			files[path] = stamp{info.Size(), info.ModTime()}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	for path := range snapshot() {
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshot()

	cp, err := s.Restore("a", ObjectAlgorithm, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()
	union, names, skipped := s.OpenUnion()
	if skipped != nil || len(names) != 2 {
		t.Fatalf("OpenUnion = %v, skipped %v", names, skipped)
	}
	union.Close()

	after := snapshot()
	for path, was := range before {
		if now, ok := after[path]; !ok {
			t.Errorf("%s removed by an open", path)
		} else if now != was {
			t.Errorf("%s changed by an open: size %d → %d, mtime %v → %v", path, was.size, now.size, was.mtime, now.mtime)
		}
	}
	for path := range after {
		if _, ok := before[path]; !ok {
			t.Errorf("%s created by an open", path)
		}
	}
}
