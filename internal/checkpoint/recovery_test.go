package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"vecycle/internal/checksum"
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
	if _, ok, err := s.Generations("a"); err != nil || ok {
		t.Errorf("partial entry has generations (ok=%v, err=%v)", ok, err)
	}
	cp, err := s.Restore("a", checksum.Default, nil)
	if err != nil {
		t.Fatalf("restore partial: %v", err)
	}
	if got := cp.IndexSource(); got != "keys" {
		t.Errorf("salvage restore index source = %q, want keys", got)
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
	if _, ok, _ := s.Generations("a"); !ok {
		t.Error("complete entry lost its generations")
	}
}

func TestSaveRemovesStaleGenerationsOnSalvage(t *testing.T) {
	s := quotaStore(t)
	v := filledVM(t, "a", 4, 1)
	if err := s.Save(v); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSalvage(filledVM(t, "a", 4, 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Generations("a"); ok {
		t.Error("salvage save left the previous checkpoint's generations behind")
	}
}

// TestKillPointMatrix crashes a Save at every commit point and asserts the
// reopened store either serves the old content or quarantines — never
// serves torn state.
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
		{point: "gens-written"},                      // all files new, manifest still stale
		{point: "manifest-committed", wantNew: true}, // transaction committed
	}
	for _, tc := range points {
		t.Run(tc.point, func(t *testing.T) {
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

			boom := errors.New("simulated crash")
			testHookKill = func(p string) error {
				if p == tc.point {
					return boom
				}
				return nil
			}
			defer func() { testHookKill = nil }()
			err = s.Save(filledVM(t, "a", 4, 2))
			testHookKill = nil
			if tc.point == "manifest-committed" {
				// The kill fires after the commit: the error is reported but
				// the transaction is already durable.
				if err == nil {
					t.Fatal("kill hook did not fire")
				}
			} else if err == nil || !errors.Is(err, boom) {
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
			case tc.wantOld:
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
			case tc.wantNew:
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
		})
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

func TestRecoverySweepsRetiredIndexFiles(t *testing.T) {
	// A store directory written while object keys and wire checksums were
	// different digests carries one fingerprint index file per entry. Nothing
	// reads them any more: opening the store unlinks them, next to a live
	// entry or not, and the entries serve from their page manifests.
	dir := filepath.Join(t.TempDir(), "s")
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v := filledVM(t, "a", 4, 1)
	if err := s.Save(v); err != nil {
		t.Fatal(err)
	}
	stale := []string{"a.pmf.idx", "gone.pmf.idx"}
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
