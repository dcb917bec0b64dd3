package checkpoint

import (
	"path/filepath"
	"testing"

	"vecycle/internal/vm"
)

const testPage = vm.PageSize

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(filepath.Join(t.TempDir(), "q"))
	if err != nil {
		t.Fatal(err)
	}
	// A commit's flush runs behind it: let it land before the directory goes.
	t.Cleanup(func() { s.Flush() })
	return s
}

// saveVM saves a VM whose content is random but deterministic per name, so
// distinct names share no pages — each save costs its full physical size.
func saveVM(t *testing.T, s *Store, name string, pages int) {
	t.Helper()
	seed := int64(1)
	for _, c := range name {
		seed = seed*131 + int64(c)
	}
	v := filledVM(t, name, pages, seed)
	if err := s.Save(v); err != nil {
		t.Fatal(err)
	}
}

// setKillHook arms testHookKill until the test ends or the returned disarm
// runs.
func setKillHook(t *testing.T, hook func(point string) error) (disarm func()) {
	testHookKill.Store(&hook)
	disarm = func() { testHookKill.Store(nil) }
	t.Cleanup(disarm)
	return disarm
}

// holdFlush keeps commits from starting the background flusher until the test
// ends: a commit stays pending until something flushes the store.
func holdFlush(t *testing.T) {
	testHookHoldFlush.Store(true)
	t.Cleanup(func() { testHookHoldFlush.Store(false) })
}

// savePartial commits v as a salvage (partial) entry, as a host does after an
// interrupted arrival.
func savePartial(s *Store, v *vm.VM) error {
	_, err := s.OpenSave(v.Name()).Commit(v, EntryPartial)
	return err
}
