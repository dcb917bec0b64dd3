package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// tempFiles lists the temp files in dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range dirents {
		if strings.HasSuffix(de.Name(), tmpSuffix) {
			out = append(out, de.Name())
		}
	}
	return out
}

// restoresTo fails the test unless the store's entry of want's name restores
// to exactly want's memory.
func restoresTo(t *testing.T, s *Store, want *vm.VM) {
	t.Helper()
	dst := newVM(t, want.Name(), want.NumPages(), 99)
	cp, err := s.Restore(want.Name(), checksum.Default, dst)
	if err != nil {
		t.Fatalf("restore %s: %v", want.Name(), err)
	}
	cp.Close()
	if !want.MemEqual(dst) {
		t.Fatalf("%s restored wrong content at page %d", want.Name(), want.FirstDifference(dst))
	}
}

// TestSegmentWritebackLeavesTailToFsync: a segment writer starts writeback in
// whole writebackChunks as it goes, front to back, trailing the write front
// by one chunk, so what the closing fsync still has to write is at least one
// chunk and less than two.
func TestSegmentWritebackLeavesTailToFsync(t *testing.T) {
	type span struct{ off, n int64 }
	var mu sync.Mutex
	var spans []span
	testHookWriteback = func(_ string, off, n int64) {
		mu.Lock()
		spans = append(spans, span{off, n})
		mu.Unlock()
	}
	defer func() { testHookWriteback = nil }()

	s := newTestStore(t)
	const pages = 4*writebackChunk/vm.PageSize + 100
	v := filledVM(t, "a", pages, 1)
	st := s.OpenSave("a")
	streamPages(st, v, 0, pages/3) // part streamed, the rest caught up
	if _, err := st.Commit(v, EntryComplete); err != nil {
		t.Fatal(err)
	}
	var started int64
	for _, sp := range spans {
		if sp.off != started || sp.n < writebackChunk {
			t.Fatalf("writebacks %v: not whole chunks, front to back", spans)
		}
		started += sp.n
	}
	if tail := segmentFileSize(pages) - started; len(spans) == 0 || tail < writebackChunk || tail >= 2*writebackChunk {
		t.Errorf("writeback started on %d of %d bytes: the fsync is left %d", started, segmentFileSize(pages), tail)
	}
	restoresTo(t, s, v)
}

// TestSaveStreamAbortLeavesNoFile: an aborted stream — with pages written or
// with none — leaves no file and no segment behind, cannot commit after, and
// the VM's previous entry keeps serving.
func TestSaveStreamAbortLeavesNoFile(t *testing.T) {
	s := newTestStore(t)
	old := filledVM(t, "a", 8, 1)
	if err := s.Save(old); err != nil {
		t.Fatal(err)
	}
	segs := len(s.Segments())
	for _, streamed := range []int{0, 8} {
		st := s.OpenSave("a")
		streamPages(st, filledVM(t, "a", 8, 2), 0, streamed)
		st.Abort()
		st.Abort() // idempotent
		if tmp := tempFiles(t, s.Dir()); len(tmp) != 0 {
			t.Errorf("abort after %d streamed pages left %v", streamed, tmp)
		}
		if _, err := st.Commit(old, EntryComplete); err == nil {
			t.Error("an aborted stream committed")
		}
	}
	if got := len(s.Segments()); got != segs {
		t.Errorf("%d segments after the aborts, want %d", got, segs)
	}
	restoresTo(t, s, old)
}

// TestSaveStreamSurvivesGCAndScrub: a collection and a scrub that run while a
// stream is open — between its writes — leave its in-flight file alone, and
// the stream then commits an entry that verifies and restores.
func TestSaveStreamSurvivesGCAndScrub(t *testing.T) {
	s := newTestStore(t)
	// A dead segment and an orphan temp file give both passes work to do.
	if err := s.Save(filledVM(t, "junk", 8, 7)); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("junk"); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(s.Dir(), segmentName(999)+tmpSuffix)
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	v := filledVM(t, "a", 300, 1) // more than a writer buffer: bytes on disk
	st := s.OpenSave("a")
	streamPages(st, v, 0, 100)
	if rep, err := s.GC(); err != nil || rep.SegmentsDeleted != 1 {
		t.Fatalf("gc: %+v, %v; want the dead segment deleted", rep, err)
	}
	streamPages(st, v, 100, 200)
	if _, err := s.Scrub(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("scrub kept the orphan temp file (stat err = %v)", err)
	}
	if tmp := tempFiles(t, s.Dir()); len(tmp) != 1 || tmp[0] != st.seg+tmpSuffix {
		t.Fatalf("temp files after gc and scrub: %v, want only the stream's", tmp)
	}
	streamPages(st, v, 200, 300)
	counts, err := st.Commit(v, EntryComplete)
	if err != nil {
		t.Fatal(err)
	}
	if counts != (SaveCounts{Streamed: 300, Hashed: 300}) {
		t.Errorf("commit counted %+v, want every page streamed and hashed", counts)
	}
	if err := s.Verify("a"); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, s)
	restoresTo(t, s, v)
}

// TestSaveStreamDeadSlots: a page streamed and then rewritten, and a page
// whose content the pool already held, become slots no entry references.
// The entry is still exactly the guest's final state, and a collection
// compacts the dead slots away.
func TestSaveStreamDeadSlots(t *testing.T) {
	s := newTestStore(t)
	v := filledVM(t, "a", 8, 1)
	if err := s.Save(v); err != nil {
		t.Fatal(err)
	}
	st := s.OpenSave("a")
	streamPages(st, v, 0, 8) // pooled already: 8 slots dead on arrival
	copyPages(t, filledVM(t, "churn", 8, 2), v, 6)
	streamPages(st, v, 2, 6)                       // 4 slots, of which pages 2-3 are
	copyPages(t, filledVM(t, "churn", 8, 3), v, 4) // superseded here: 2 dead
	counts, err := st.Commit(v, EntryComplete)
	if err != nil {
		t.Fatal(err)
	}
	// Missing: pages 0-3 (second churn, caught up) and 4-5 (first, streamed).
	if counts != (SaveCounts{Streamed: 2, CaughtUp: 4, Hashed: 8, Pooled: 2}) {
		t.Errorf("commit counted %+v, want 2 streamed, 4 caught up, 8 hashed and 2 pooled", counts)
	}
	seg := s.Segments()[len(s.Segments())-1]
	if seg.Pages != 16 {
		t.Errorf("stream's segment holds %d slots, want 8 pooled + 4 streamed + 4 caught up", seg.Pages)
	}
	checkInvariants(t, s)
	restoresTo(t, s, v)
	// The stream's 10 dead slots go, and so do the 6 pages of the first
	// segment the new entry replaced.
	if rep, err := s.GC(); err != nil || rep.SegmentsCompacted != 2 || rep.PagesReclaimed != 16 {
		t.Errorf("gc: %+v, %v; want both segments compacted, 16 pages reclaimed", rep, err)
	}
	checkInvariants(t, s)
	restoresTo(t, s, v)
}

// TestSaveStreamBroken: a write under the stream fails. The stream stops
// writing, its commit saves nothing and says ErrStreamBroken, its file is
// gone, the previous entry still serves, and a fresh save writes everything.
func TestSaveStreamBroken(t *testing.T) {
	inj := faultfs.NewInjector()
	dir := filepath.Join(t.TempDir(), "s")
	s, err := NewStoreFS(dir, inj.FS(faultfs.OS))
	if err != nil {
		t.Fatal(err)
	}
	old := filledVM(t, "a", 8, 1)
	if err := s.Save(old); err != nil {
		t.Fatal(err)
	}
	v := filledVM(t, "a", 200, 2)
	st := s.OpenSave("a")
	inj.Arm(faultfs.Fault{Op: faultfs.OpWrite, Path: segmentSuffix + tmpSuffix})
	streamPages(st, v, 0, 200)
	if len(inj.Shots()) != 1 {
		t.Fatalf("%d faults fired, want the one armed", len(inj.Shots()))
	}
	if _, err := st.Commit(v, EntryComplete); !errors.Is(err, ErrStreamBroken) || !errors.Is(err, faultfs.ErrEIO) {
		t.Fatalf("commit of a broken stream: %v, want ErrStreamBroken wrapping EIO", err)
	}
	if tmp := tempFiles(t, dir); len(tmp) != 0 {
		t.Errorf("broken stream left %v", tmp)
	}
	restoresTo(t, s, old)
	if err := s.Save(v); err != nil {
		t.Fatal(err)
	}
	restoresTo(t, s, v)
	checkInvariants(t, s)
}
