package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vecycle/internal/checkpoint"
	"vecycle/internal/vm"
)

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := f()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// seedStore builds a store with one complete entry, one partial (salvage)
// entry, and one entry whose image is torn after the fact.
func seedStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, seed int64) *vm.VM {
		v, err := vm.New(vm.Config{Name: name, MemBytes: 16 * vm.PageSize, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.FillRandom(1.0); err != nil {
			t.Fatal(err)
		}
		return v
	}
	if err := st.Save(mk("good", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.OpenSave("part").Commit(mk("part", 2), checkpoint.EntryPartial); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(mk("rot", 3)); err != nil {
		t.Fatal(err)
	}
	// Tear the newest pool segment — the one rot's save just wrote — behind
	// the store's back; the next open quarantines the entry.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no pool segments on disk (err=%v)", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, 5000); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return dir
}

func TestStoreLs(t *testing.T) {
	dir := seedStore(t)
	out, err := captureStdout(t, func() error {
		return run([]string{"store", "ls", "-store", dir})
	})
	if err != nil {
		t.Fatalf("store ls: %v\n%s", err, out)
	}
	for _, want := range []string{"NAME", "good", "complete", "part", "partial", "rot", "quarantined", "digest mismatch"} {
		if !strings.Contains(out, want) {
			t.Errorf("ls output missing %q:\n%s", want, out)
		}
	}
}

func TestStoreScrub(t *testing.T) {
	dir := seedStore(t)
	out, err := captureStdout(t, func() error {
		return run([]string{"store", "scrub", "-store", dir})
	})
	if err == nil {
		t.Fatalf("scrub of a store with a torn image exited clean:\n%s", out)
	}
	if !strings.Contains(err.Error(), "quarantined") {
		t.Errorf("scrub error = %v, want it to mention quarantine", err)
	}
	if !strings.Contains(out, "entries checked") {
		t.Errorf("scrub output missing the checked count:\n%s", out)
	}

	// Remove the torn entry; a re-scrub is then healthy.
	st, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Remove("rot"); err != nil {
		t.Fatal(err)
	}
	out, err = captureStdout(t, func() error {
		return run([]string{"store", "scrub", "-store", dir})
	})
	if err != nil {
		t.Fatalf("scrub of a healthy store failed: %v\n%s", err, out)
	}
}

// dedupStore builds a store where two VMs share half their pages, so the
// pool holds measurably less than the sum of the entries.
func dedupStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 16
	v1, err := vm.New(vm.Config{Name: "vm1", MemBytes: pages * vm.PageSize, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	v2, err := vm.New(vm.Config{Name: "vm2", MemBytes: pages * vm.PageSize, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, vm.PageSize)
	for i := 0; i < pages/2; i++ {
		v1.ReadPage(i, buf)
		v2.InstallPage(i, buf)
	}
	if err := st.Save(v1); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(v2); err != nil {
		t.Fatal(err)
	}
	return dir
}

// statRatio extracts the "dedup ratio" line from store stat output.
func statRatio(t *testing.T, out string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "dedup ratio:") {
			var r float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "dedup ratio:"), "%f", &r); err != nil {
				t.Fatalf("unparsable ratio line %q: %v", line, err)
			}
			return r
		}
	}
	t.Fatalf("no dedup ratio line in:\n%s", out)
	return 0
}

// TestStoreStatDedupRatio is the CI dedup smoke: two checkpoints sharing
// half their content must yield a stat ratio strictly above 1.0.
func TestStoreStatDedupRatio(t *testing.T) {
	dir := dedupStore(t)
	out, err := captureStdout(t, func() error {
		return run([]string{"store", "stat", "-store", dir})
	})
	if err != nil {
		t.Fatalf("store stat: %v\n%s", err, out)
	}
	for _, want := range []string{"entries:", "segments:", "objects:", "logical bytes:", "physical bytes:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stat output missing %q:\n%s", want, out)
		}
	}
	if r := statRatio(t, out); r <= 1.0 {
		t.Errorf("dedup ratio = %v, want > 1.0\n%s", r, out)
	}
}

func TestStoreGCReclaimsRemovedEntries(t *testing.T) {
	dir := dedupStore(t)
	st, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Remove("vm2"); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"store", "gc", "-store", dir})
	})
	if err != nil {
		t.Fatalf("store gc: %v\n%s", err, out)
	}
	if !strings.Contains(out, "reclaimed") {
		t.Errorf("gc output missing reclaim summary:\n%s", out)
	}
	// With vm2 gone and its unshared half collected, the pool holds exactly
	// vm1's content again: ratio back to 1.0.
	out, err = captureStdout(t, func() error {
		return run([]string{"store", "stat", "-store", dir})
	})
	if err != nil {
		t.Fatalf("store stat: %v\n%s", err, out)
	}
	if r := statRatio(t, out); r != 1.0 {
		t.Errorf("post-gc dedup ratio = %v, want 1.0\n%s", r, out)
	}
}

func TestStoreLsReportsUniqueBytes(t *testing.T) {
	dir := dedupStore(t)
	out, err := captureStdout(t, func() error {
		return run([]string{"store", "ls", "-store", dir})
	})
	if err != nil {
		t.Fatalf("store ls: %v\n%s", err, out)
	}
	if !strings.Contains(out, "UNIQUE") {
		t.Errorf("ls output missing UNIQUE column:\n%s", out)
	}
	// Each entry is 16 pages logical but pins only its unshared 8 pages.
	logical := fmt.Sprintf("%d", 16*vm.PageSize)
	unique := fmt.Sprintf("%d", 8*vm.PageSize)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "vm1") || strings.HasPrefix(line, "vm2") {
			if !strings.Contains(line, logical) || !strings.Contains(line, unique) {
				t.Errorf("entry line lacks logical=%s unique=%s: %q", logical, unique, line)
			}
		}
	}
}

func TestStoreUsageErrors(t *testing.T) {
	if err := run([]string{"store"}); err == nil {
		t.Error("store without subcommand accepted")
	}
	if err := run([]string{"store", "bogus", "-store", t.TempDir()}); err == nil {
		t.Error("unknown store subcommand accepted")
	}
	if err := run([]string{"store", "ls"}); err == nil {
		t.Error("store ls without -store accepted")
	}
}

// TestStoreScrubReportsOpeningScan: opening the store already runs the
// recovery scan, which rolls back a segment no transaction recorded and
// deletes a temp file; scrub must report what that scan did, not only what
// its own scan finds afterwards.
func TestStoreScrubReportsOpeningScan(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"seg-00000099.seg", "junk.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"store", "scrub", "-store", dir})
	})
	if err != nil {
		t.Fatalf("scrub: %v\n%s", err, out)
	}
	for _, want := range []string{"rolled back (uncommitted): seg-00000099.seg", "temp files removed: junk.tmp"} {
		if !strings.Contains(out, want) {
			t.Errorf("scrub output missing %q:\n%s", want, out)
		}
	}
	for _, name := range []string{"seg-00000099.seg", "junk.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s still on disk (stat err = %v)", name, err)
		}
	}
}
