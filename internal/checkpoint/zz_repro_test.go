package checkpoint

import (
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// Repro: after a GC compaction, dead objects whose canonical location was the
// compacted segment remain in s.objects pointing at the deleted file. A later
// Save of the same content dedups against the vanished payload.
func TestReproCompactionStaleIndex(t *testing.T) {
	s := quotaStore(t)
	a := filledVM(t, "a", 8, 1)
	b := filledVM(t, "b", 8, 2)
	copyPages(t, a, b, 4) // b shares a's first 4 pages

	if err := s.Save(a); err != nil { // seg1: all 8 of a's pages
		t.Fatal(err)
	}
	if err := s.Save(b); err != nil { // seg2: b's 4 unique pages
		t.Fatal(err)
	}
	if err := s.Remove("a"); err != nil { // a's last 4 pages now dead in seg1
		t.Fatal(err)
	}
	rep, err := s.GC() // 4/8 dead -> compaction threshold hit
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("gc: %+v", rep)

	// VM c carries the content of a's dead pages (a's pages 4..7).
	c := filledVM(t, "c", 4, 99)
	buf := make([]byte, vm.PageSize)
	for i := 0; i < 4; i++ {
		a.ReadPage(4+i, buf)
		c.WritePage(i, buf)
	}
	if err := s.Save(c); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "c", 4, 123)
	cp, err := s.Restore("c", checksum.Default, dst)
	if err != nil {
		t.Fatalf("restore after compaction: %v", err)
	}
	cp.Close()
	if !c.MemEqual(dst) {
		t.Fatalf("restored content differs at page %d", c.FirstDifference(dst))
	}
}
