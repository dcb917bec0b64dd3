package checkpoint

import (
	"os"
	"path/filepath"
	"testing"

	"vecycle/internal/checksum"
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
	s := quotaStore(t)
	saveVM(t, s, "a", 4)
	if err := s.Verify("a"); err != nil {
		t.Errorf("clean checkpoint failed verification: %v", err)
	}
}

func TestVerifyDetectsBitRot(t *testing.T) {
	s := quotaStore(t)
	saveVM(t, s, "a", 4)
	tamperObject(t, s, "a", 2)
	if err := s.Verify("a"); err == nil {
		t.Error("bit rot not detected")
	}
}

func TestVerifyAbsentEntryTrivial(t *testing.T) {
	s := quotaStore(t)
	if err := s.Verify("never-saved"); err != nil {
		t.Errorf("absent entry should verify trivially: %v", err)
	}
}

func TestVerifyOnRestore(t *testing.T) {
	s, err := NewStore(filepath.Join(t.TempDir(), "v"))
	if err != nil {
		t.Fatal(err)
	}
	v := filledVM(t, "a", 4, 1)
	if err := s.Save(v); err != nil {
		t.Fatal(err)
	}
	s.SetVerifyOnRestore(true)

	// Clean restore succeeds.
	cp, err := s.Restore("a", checksum.Default, nil)
	if err != nil {
		t.Fatalf("clean restore: %v", err)
	}
	cp.Close()

	// Corrupt a stored page: restore must now fail before any data is used.
	tamperObject(t, s, "a", 1)
	if _, err := s.Restore("a", checksum.Default, nil); err == nil {
		t.Error("corrupt checkpoint restored under VerifyOnRestore")
	}

	// Without the knob the (page-aligned) corruption is invisible: an open
	// under the key algorithm serves the recorded keys without reading pages.
	s.SetVerifyOnRestore(false)
	cp, err = s.Restore("a", checksum.Default, nil)
	if err != nil {
		t.Fatalf("unverified restore: %v", err)
	}
	cp.Close()
}

func TestRemoveDeletesEntryFiles(t *testing.T) {
	s := quotaStore(t)
	saveVM(t, s, "a", 4)
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.pmfPath("a")); !os.IsNotExist(err) {
		t.Errorf("page manifest survived Remove (stat err = %v)", err)
	}
}
