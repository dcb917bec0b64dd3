package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vecycle/internal/checksum"
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
	s := quotaStore(t)
	a := filledVM(t, "a", 8, 1)
	b := filledVM(t, "b", 8, 2)
	copyPages(t, a, b, 4) // b's first 4 pages now duplicate a's

	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(b); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.LogicalBytes != 16*testPage {
		t.Errorf("LogicalBytes = %d, want %d", st.LogicalBytes, 16*testPage)
	}
	if st.PhysicalBytes != 12*testPage {
		t.Errorf("PhysicalBytes = %d, want %d (4 shared pages stored once)", st.PhysicalBytes, 12*testPage)
	}
	if st.DedupPagesTotal != 4 {
		t.Errorf("DedupPagesTotal = %d, want 4", st.DedupPagesTotal)
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
	s := quotaStore(t)
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
	s := quotaStore(t)
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
	s := quotaStore(t)
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
	testHookKill = func(p string) error {
		if p == "image-renamed" {
			return boom
		}
		return nil
	}
	_, err = s.GC()
	testHookKill = nil
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
	s := quotaStore(t)
	// Empty store: no union.
	cp, names, err := s.OpenUnion()
	if err != nil || cp != nil || names != nil {
		t.Fatalf("empty union = %v, %v, %v", cp, names, err)
	}
	a := filledVM(t, "a", 4, 1)
	b := filledVM(t, "b", 4, 2)
	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSalvage(b); err != nil {
		t.Fatal(err)
	}
	cp, names, err = s.OpenUnion()
	if err != nil {
		t.Fatal(err)
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
	// The union has no frame geometry: it can never act as a delta base.
	if cp.Pages() != 0 {
		t.Errorf("union Pages = %d, want 0", cp.Pages())
	}
	if _, ok, _ := cp.PageAt(0); ok {
		t.Error("union PageAt served a frame")
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
	cp, names, err := s2.OpenUnion()
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if len(names) != 1 || names[0] != "good" {
		t.Errorf("union covers %v, want only the good entry", names)
	}
}

// fakeMetrics records store metric callbacks; its methods call back into
// the store to prove the deferred-delivery contract is deadlock free.
type fakeMetrics struct {
	mu          sync.Mutex
	store       *Store
	dedup       int
	gcRuns      map[string]int
	physSum     int64
	hashed      map[string]int64
	unhashed    int64
	degraded    map[string]int
	cleanupErrs []string
}

func (m *fakeMetrics) DedupPages(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dedup += n
	m.physSum = m.store.Stats().PhysicalBytes // re-enters the store lock
}

func (m *fakeMetrics) GCRun(outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gcRuns == nil {
		m.gcRuns = map[string]int{}
	}
	m.gcRuns[outcome]++
}

func (m *fakeMetrics) HashBytes(stage string, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.hashed == nil {
		m.hashed = map[string]int64{}
	}
	m.hashed[stage] += n
}

func (m *fakeMetrics) HashAvoidedBytes(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.unhashed += n
}

func (m *fakeMetrics) Degraded(stage, fault string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.degraded == nil {
		m.degraded = map[string]int{}
	}
	m.degraded[stage+":"+fault]++
}

func (m *fakeMetrics) CleanupError(path string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cleanupErrs = append(m.cleanupErrs, path)
}

func TestMetricsSinkDeliveredOutsideLock(t *testing.T) {
	s := quotaStore(t)
	m := &fakeMetrics{store: s}
	s.SetMetrics(m)
	a := filledVM(t, "a", 4, 1)
	b := filledVM(t, "b", 4, 2)
	copyPages(t, a, b, 2)
	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(b); err != nil {
		t.Fatal(err)
	}
	if m.dedup != 2 {
		t.Errorf("DedupPages total = %d, want 2", m.dedup)
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if m.gcRuns["clean"] < 1 || m.gcRuns["reclaimed"] < 1 {
		t.Errorf("GCRun outcomes = %v, want both clean and reclaimed", m.gcRuns)
	}
}

// TestConcurrentSaveGCRestore hammers Save, GC, Restore, OpenUnion and
// Stats from concurrent goroutines. Run under -race; invariants: no panics,
// no unexpected errors, restores that succeed return coherent checkpoints.
func TestConcurrentSaveGCRestore(t *testing.T) {
	s := quotaStore(t)
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
			cp, _, err := s.OpenUnion()
			if err != nil {
				errc <- err
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
		s := quotaStore(t)
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
				if got, ok, err := cp.PageAt(i); err != nil || !ok || !bytes.Equal(got, buf) {
					t.Errorf("raced restore: PageAt(%d) ok=%v err=%v, content differs=%v", i, ok, err, !bytes.Equal(got, buf))
					return
				}
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
			cp, names, err := s.OpenUnion()
			if err != nil {
				t.Errorf("raced OpenUnion: %v", err)
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
