package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// filledVM builds a VM with deterministic random content so different seeds
// yield fully distinct page sets (no accidental cross-entry dedup).
func filledVM(t *testing.T, name string, pages int, seed int64) *vm.VM {
	t.Helper()
	v, err := vm.New(vm.Config{Name: name, MemBytes: int64(pages) * testPage, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSaveSalvagePartialEntry(t *testing.T) {
	s := quotaStore(t)
	v := filledVM(t, "a", 4, 1)
	if err := s.SaveSalvage(v); err != nil {
		t.Fatal(err)
	}
	info, ok := s.Entry("a")
	if !ok || info.State != EntryPartial {
		t.Fatalf("Entry after SaveSalvage = %+v, %v; want partial", info, ok)
	}
	if !s.Has("a") {
		t.Error("partial entry should be servable")
	}
	if info.Digest == "" {
		t.Errorf("salvage entry missing digest: %+v", info)
	}
	cp, err := s.Restore("a", checksum.Default, nil)
	if err != nil {
		t.Fatalf("restore partial: %v", err)
	}
	cp.Close()

	// A completed migration supersedes the salvage entry.
	if err := s.Save(v); err != nil {
		t.Fatal(err)
	}
	info, _ = s.Entry("a")
	if info.State != EntryComplete {
		t.Errorf("state after Save = %v, want complete", info.State)
	}
}

// streamSave saves v through a save stream that was handed every page first,
// as a migration's round one does, leaving the commit nothing to catch up.
func streamSave(s *Store, v *vm.VM) error {
	st := s.OpenSave(v.Name())
	streamPages(st, v, 0, v.NumPages())
	_, err := st.Commit(v, EntryComplete)
	return err
}

// streamPages hands pages [start, end) of v to st with their keys.
func streamPages(st *SaveStream, v *vm.VM, start, end int) {
	buf := make([]byte, vm.PageSize)
	for i := start; i < end; i++ {
		v.ReadPage(i, buf)
		st.Add(ObjectAlgorithm.Page(buf), buf)
	}
}

// errCrash stands in for a process that died with a save stream open.
var errCrash = errors.New("simulated crash")

// TestKillPointMatrix crashes a Save at every commit point and asserts the
// reopened store either serves the old content or quarantines — never
// serves torn state. The streamed/ cells crash a save whose pages were all
// streamed before the commit, plus one that crashes mid-stream, before any
// commit began: its in-flight segment is swept at the next open.
func TestKillPointMatrix(t *testing.T) {
	points := []struct {
		point string
		// wantOld: the recovered entry serves the pre-crash content.
		// wantNew: the transaction committed; the new content is served.
		// Neither: the entry must be quarantined and refuse to serve.
		wantOld bool
		wantNew bool
	}{
		{point: "image-written", wantOld: true},      // segment tmp written, not yet durable
		{point: "image-synced", wantOld: true},       // segment tmp durable, before rename
		{point: "image-renamed", wantOld: true},      // segment renamed but unrecorded: rolled back
		{point: "pmf-written"},                       // page manifest replaced, store manifest stale
		{point: "manifest-committed", wantNew: true}, // transaction committed
	}
	midStream := func(s *Store, v *vm.VM) error {
		streamPages(s.OpenSave(v.Name()), v, 0, v.NumPages())
		return errCrash
	}
	for _, tc := range points {
		t.Run(tc.point, func(t *testing.T) {
			killPointCell(t, tc.point, tc.wantOld, tc.wantNew, (*Store).Save)
		})
		t.Run("streamed/"+tc.point, func(t *testing.T) {
			killPointCell(t, tc.point, tc.wantOld, tc.wantNew, streamSave)
		})
	}
	t.Run("streamed/mid-stream", func(t *testing.T) {
		killPointCell(t, "", true, false, midStream)
	})
}

// killPointCell saves a checkpoint, then crashes save — a replacement of it —
// at point (or wherever save itself returns errCrash), reopens the store and
// checks what it serves.
func killPointCell(t *testing.T, point string, wantOld, wantNew bool, save func(*Store, *vm.VM) error) {
	dir := filepath.Join(t.TempDir(), "s")
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := filledVM(t, "a", 4, 1)
	if err := s.Save(old); err != nil {
		t.Fatal(err)
	}
	oldInfo, ok := s.Entry("a")
	if !ok || oldInfo.Digest == "" {
		t.Fatalf("pre-crash entry = %+v, %v", oldInfo, ok)
	}

	testHookKill = func(p string) error {
		if p == point {
			return errCrash
		}
		return nil
	}
	defer func() { testHookKill = nil }()
	err = save(s, filledVM(t, "a", 4, 2))
	testHookKill = nil
	if point == "manifest-committed" {
		// The kill fires after the commit: the error is reported but
		// the transaction is already durable.
		if err == nil {
			t.Fatal("kill hook did not fire")
		}
	} else if err == nil || !errors.Is(err, errCrash) {
		t.Fatalf("killed Save error = %v, want the simulated crash", err)
	}

	// "Reboot": a fresh store over the same directory runs recovery.
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := s2.Entry("a")
	if !ok {
		t.Fatal("entry vanished after recovery")
	}
	switch {
	case wantOld:
		if info.State != EntryComplete {
			t.Fatalf("state = %v (%s), want complete (old content)", info.State, info.Reason)
		}
		if info.Digest != oldInfo.Digest {
			t.Error("recovered entry is not the pre-crash checkpoint")
		}
		dst := newVM(t, "a", 4, 99)
		if cp, err := s2.Restore("a", checksum.Default, dst); err != nil {
			t.Errorf("old checkpoint refused: %v", err)
		} else {
			cp.Close()
			if !old.MemEqual(dst) {
				t.Error("recovered content differs from the pre-crash save")
			}
		}
	case wantNew:
		if info.State != EntryComplete {
			t.Fatalf("state = %v (%s), want complete (new content)", info.State, info.Reason)
		}
		if info.Digest == oldInfo.Digest {
			t.Error("committed transaction still serves the old digest")
		}
		if cp, err := s2.Restore("a", checksum.Default, nil); err != nil {
			t.Errorf("committed checkpoint refused: %v", err)
		} else {
			cp.Close()
		}
	default:
		if info.State != EntryQuarantined {
			t.Fatalf("state = %v, want quarantined", info.State)
		}
		if s2.Has("a") {
			t.Error("Has serves a quarantined entry")
		}
		if _, err := s2.Restore("a", checksum.Default, nil); err == nil {
			t.Error("Restore served a quarantined entry")
		}
	}
	// No interrupted-transaction temp files or unrecorded segments
	// survive recovery.
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]bool{}
	for _, seg := range s2.Segments() {
		recorded[seg.Name] = true
	}
	for _, de := range dirents {
		if filepath.Ext(de.Name()) == tmpSuffix {
			t.Errorf("orphan temp file survived recovery: %s", de.Name())
		}
		if filepath.Ext(de.Name()) == segmentSuffix && !recorded[de.Name()] {
			t.Errorf("unrecorded segment survived recovery: %s", de.Name())
		}
	}
}

func TestTornSegmentQuarantinesOnlyItsEntries(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct seeds: the two entries share no objects, so tearing one
	// entry's segment must not touch the other.
	if err := s.Save(filledVM(t, "seg-torn", 4, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(filledVM(t, "intact", 4, 4)); err != nil {
		t.Fatal(err)
	}
	// Tear the segment holding seg-torn's pages mid-payload.
	loc := s.objects[s.keys["seg-torn"][2]]
	f, err := os.OpenFile(filepath.Join(dir, loc.seg), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, loc.off+17); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info, _ := s2.Entry("seg-torn"); info.State != EntryQuarantined {
		t.Errorf("torn segment entry state = %v, want quarantined", info.State)
	}
	if _, err := s2.Restore("seg-torn", checksum.Default, nil); err == nil {
		t.Error("entry with a torn segment served")
	}
	if info, _ := s2.Entry("intact"); info.State != EntryComplete {
		t.Errorf("intact entry state = %v (%s), want complete", info.State, info.Reason)
	}
	cp, err := s2.Restore("intact", checksum.Default, nil)
	if err != nil {
		t.Fatalf("intact entry refused: %v", err)
	}
	cp.Close()
}

// TestRecoverySetsAsideCorruptSegment damages a recorded segment behind the
// store's back — one payload bit, one key-table byte, a truncated payload, a
// torn trailer, a wrong count —
// and asserts the reopened store sets the file aside as .seg.bad and
// quarantines exactly the entry that depended on it, with a reason naming the
// segment, while an entry in another segment keeps serving.
func TestRecoverySetsAsideCorruptSegment(t *testing.T) {
	flip := func(t *testing.T, path string, off int64) {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := []byte{0}
		if _, err := f.ReadAt(b, off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x01
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
	}
	const pages = 8
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"payload-bit", func(t *testing.T, path string) { flip(t, path, segPayloadOffset(5)+1234) }},
		{"key-table-byte", func(t *testing.T, path string) { flip(t, path, segPayloadOffset(pages)+3*checksum.Size+7) }},
		{"truncated-payload", func(t *testing.T, path string) {
			if err := os.Truncate(path, segPayloadOffset(pages)-100); err != nil {
				t.Fatal(err)
			}
		}},
		// A tail torn inside the key table: the count read from the end is
		// payload bytes, so the trailer names no objects at all.
		{"torn-trailer", func(t *testing.T, path string) {
			if err := os.Truncate(path, segmentFileSize(pages)-100); err != nil {
				t.Fatal(err)
			}
		}},
		{"trailer-count", func(t *testing.T, path string) { flip(t, path, segmentFileSize(pages)-4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "s")
			s, err := NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Save(filledVM(t, "victim", pages, 3)); err != nil {
				t.Fatal(err)
			}
			intact := filledVM(t, "intact", pages, 4)
			if err := s.Save(intact); err != nil {
				t.Fatal(err)
			}
			seg := s.objects[s.keys["victim"][0]].seg
			path := filepath.Join(dir, seg)
			tc.damage(t, path)

			s2, err := NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			info, _ := s2.Entry("victim")
			if info.State != EntryQuarantined || !strings.Contains(info.Reason, seg) {
				t.Errorf("victim = %v (%q), want quarantined with a reason naming %s", info.State, info.Reason, seg)
			}
			if _, err := os.Stat(path + ".bad"); err != nil {
				t.Errorf("damaged segment not set aside: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("damaged segment still under its name (stat err = %v)", err)
			}
			for _, si := range s2.Segments() {
				if si.Name == seg {
					t.Errorf("damaged segment %s still recorded", seg)
				}
			}
			dst := newVM(t, "intact", pages, 99)
			cp, err := s2.Restore("intact", checksum.Default, dst)
			if err != nil {
				t.Fatalf("intact entry refused: %v", err)
			}
			cp.Close()
			if !intact.MemEqual(dst) {
				t.Error("intact entry restored wrong content")
			}
		})
	}
}

func TestRecoverySweepsRetiredIndexFiles(t *testing.T) {
	// A store directory written while object keys and wire checksums were
	// different digests carries one fingerprint index file per entry, and
	// one written while complete saves kept a generation vector carries a
	// .gens.json per entry. Nothing reads either: opening the store unlinks
	// them, next to a live entry or not, and the entries serve from their
	// page manifests.
	dir := filepath.Join(t.TempDir(), "s")
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v := filledVM(t, "a", 4, 1)
	if err := s.Save(v); err != nil {
		t.Fatal(err)
	}
	stale := []string{"a.pmf.idx", "gone.pmf.idx", "a.gens.json", "gone.gens.json"}
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("VCFP stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived recovery (stat err = %v)", name, err)
		}
	}
	dst := newVM(t, "a", 4, 99)
	cp, err := s2.Restore("a", checksum.Default, dst)
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()
	if !v.MemEqual(dst) {
		t.Error("restored content differs from the save")
	}
}

func TestScrubReportAndManifestDrop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(filledVM(t, "gone", 4, 6)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(filledVM(t, "kept", 4, 7)); err != nil {
		t.Fatal(err)
	}
	// Delete one page manifest behind the store's back and drop in an
	// orphan temp file.
	if err := os.Remove(s.pmfPath("gone")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.img.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dropped) != 1 || rep.Dropped[0] != "gone" {
		t.Errorf("Dropped = %v", rep.Dropped)
	}
	if len(rep.TempFiles) != 1 {
		t.Errorf("TempFiles = %v", rep.TempFiles)
	}
	if rep.Checked != 1 {
		t.Errorf("Checked = %d, want 1", rep.Checked)
	}
	if _, ok := s.Entry("gone"); ok {
		t.Error("dropped entry still reported")
	}
	if !s.Has("kept") {
		t.Error("surviving entry lost")
	}
}

// syncLog is a faultfs.FS that records, in order, the name of every file or
// directory handle synced through it.
type syncLog struct {
	faultfs.FS
	mu    sync.Mutex
	names []string
}

type syncLogFile struct {
	faultfs.File
	log *syncLog
}

func (f syncLogFile) Sync() error {
	f.log.mu.Lock()
	f.log.names = append(f.log.names, f.Name())
	f.log.mu.Unlock()
	return f.File.Sync()
}

func (l *syncLog) wrap(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return syncLogFile{File: f, log: l}, nil
}

func (l *syncLog) Create(name string) (faultfs.File, error) { return l.wrap(l.FS.Create(name)) }

func (l *syncLog) Open(name string) (faultfs.File, error) { return l.wrap(l.FS.Open(name)) }

func (l *syncLog) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	return l.wrap(l.FS.OpenFile(name, flag, perm))
}

// TestWarmSaveSyncs pins what a warm complete save makes durable: the new
// segment, the page manifest and the store manifest, each followed by its
// directory — and nothing else, so a deleted satellite write cannot creep
// back unnoticed. A save whose pages were streamed first syncs the same set:
// streaming moves the segment's writes under the migration, not its fsync.
func TestWarmSaveSyncs(t *testing.T) {
	for _, streamed := range []bool{false, true} {
		t.Run(fmt.Sprintf("streamed=%v", streamed), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "s")
			log := &syncLog{FS: faultfs.OS}
			s, err := NewStoreFS(dir, log)
			if err != nil {
				t.Fatal(err)
			}
			v := filledVM(t, "a", 64, 1)
			if err := s.Save(v); err != nil {
				t.Fatal(err)
			}
			copyPages(t, filledVM(t, "churn", 3, 2), v, 3)
			log.names = nil
			st := s.OpenSave("a")
			if streamed {
				streamPages(st, v, 0, 3)
			}
			counts, err := st.Commit(v, EntryComplete)
			if err != nil {
				t.Fatal(err)
			}
			want := SaveCounts{CaughtUp: 3}
			if streamed {
				want = SaveCounts{Streamed: 3}
			}
			if counts != want {
				t.Errorf("save counted %+v, want %+v", counts, want)
			}
			var got []string
			for _, name := range log.names {
				switch {
				case name == dir:
					got = append(got, "dir")
				case strings.HasSuffix(name, segmentSuffix+tmpSuffix):
					got = append(got, "segment")
				case strings.HasSuffix(name, pmfSuffix+tmpSuffix):
					got = append(got, "pmf")
				case strings.HasSuffix(name, manifestName+tmpSuffix):
					got = append(got, "manifest")
				default:
					got = append(got, name)
				}
			}
			if want := []string{"segment", "dir", "pmf", "dir", "manifest", "dir"}; !reflect.DeepEqual(got, want) {
				t.Errorf("warm save synced %v, want %v", got, want)
			}
		})
	}
}
