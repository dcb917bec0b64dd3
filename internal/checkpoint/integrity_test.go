package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
)

// tamperObject flips bytes inside the stored payload of the named entry's
// page `slot`, behind the store's back.
func tamperObject(t *testing.T, s *Store, name string, slot int) {
	t.Helper()
	s.mu.Lock()
	loc := s.objects[s.keys[sanitize(name)][slot]]
	s.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(s.dir, loc.seg), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{0xde, 0xad}, loc.off+100); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCleanImage(t *testing.T) {
	s := newTestStore(t)
	saveVM(t, s, "a", 4)
	if err := s.Verify("a"); err != nil {
		t.Errorf("clean checkpoint failed verification: %v", err)
	}
}

func TestVerifyDetectsBitRot(t *testing.T) {
	s := newTestStore(t)
	saveVM(t, s, "a", 4)
	tamperObject(t, s, "a", 2)
	if err := s.Verify("a"); err == nil {
		t.Error("bit rot not detected")
	}
}

func TestVerifyAbsentEntryTrivial(t *testing.T) {
	s := newTestStore(t)
	if err := s.Verify("never-saved"); err != nil {
		t.Errorf("absent entry should verify trivially: %v", err)
	}
}

// TestTamperedEntryOpensIndexOnly: a restore under the key algorithm with no
// guest reads no page, so a corrupt payload does not stop the open; Verify,
// which re-reads every page, refuses the entry.
func TestTamperedEntryOpensIndexOnly(t *testing.T) {
	s := newTestStore(t)
	saveVM(t, s, "a", 4)
	tamperObject(t, s, "a", 1)
	cp, err := s.Restore("a", ObjectAlgorithm, nil)
	if err != nil {
		t.Fatalf("index-only open of a tampered entry: %v", err)
	}
	cp.Close()
	if err := s.Verify("a"); err == nil {
		t.Error("Verify accepted a tampered entry")
	}
}

func TestRemoveDeletesEntryFiles(t *testing.T) {
	s := newTestStore(t)
	saveVM(t, s, "a", 4)
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.pmfPath("a")); !os.IsNotExist(err) {
		t.Errorf("page manifest survived Remove (stat err = %v)", err)
	}
}
