package checkpoint

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// checkInvariants re-derives what the store's in-memory view must satisfy
// instead of trusting the bookkeeping that maintains it: refcounts equal a
// recount of every entry's key list, every key of a servable entry resolves
// in the pool, and every pool location names a live, recorded segment slot
// that holds exactly that key.
func checkInvariants(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	recount := map[checksum.Sum]int{}
	for key, keys := range s.keys {
		if _, ok := s.man.Entries[key]; !ok {
			t.Errorf("key list for %q, which the manifest does not record", key)
		}
		for _, k := range keys {
			recount[k]++
		}
	}
	if !maps.Equal(recount, s.refs) {
		for k, n := range recount {
			if s.refs[k] != n {
				t.Errorf("refs[%s] = %d, recount %d", k, s.refs[k], n)
			}
		}
		for k, n := range s.refs {
			if _, ok := recount[k]; !ok {
				t.Errorf("refs[%s] = %d for a key no entry holds", k, n)
			}
		}
	}
	for key, e := range s.man.Entries {
		if e.State == EntryQuarantined {
			continue
		}
		keys, ok := s.keys[key]
		if !ok || len(keys) != e.Pages {
			t.Errorf("%s entry %q: %d keys in memory, %d pages recorded", e.State, key, len(keys), e.Pages)
		}
		for i, k := range keys {
			if _, ok := s.objects[k]; !ok {
				t.Errorf("%s entry %q page %d: object %s not in the pool", e.State, key, i, k)
			}
		}
	}
	for k, loc := range s.objects {
		segKeys, inTable := s.segKeys[loc.seg]
		_, recorded := s.man.Segments[loc.seg]
		if !inTable || !recorded {
			t.Errorf("object %s lives in %s (key table known %v, recorded %v)", k, loc.seg, inTable, recorded)
			continue
		}
		slot := int((loc.off - segPayloadOffset(0)) / vm.PageSize)
		if slot < 0 || slot >= len(segKeys) || segPayloadOffset(slot) != loc.off || segKeys[slot] != k {
			t.Errorf("object %s at %s+%d, which is not its slot", k, loc.seg, loc.off)
		}
	}
}

// sameView fails unless two stores hold the same manifest and the same
// in-memory pool view.
func sameView(t *testing.T, step string, want, got *Store) {
	t.Helper()
	for _, c := range []struct {
		what      string
		want, got any
	}{
		{"manifest", want.man, got.man},
		{"objects", want.objects, got.objects},
		{"refs", want.refs, got.refs},
		{"keys", want.keys, got.keys},
		{"segment key tables", want.segKeys, got.segKeys},
	} {
		if !reflect.DeepEqual(c.want, c.got) {
			t.Errorf("after %s: %s built in place differ from the ones recovery rebuilds", step, c.what)
		}
	}
}

// TestStoreInvariantsSeeded drives one store through a seeded sequence of
// saves at several churns (with pages duplicated inside a guest and content
// shared across guests), streamed saves (streamStep), salvage saves, resizes, removals, GC passes with
// compaction, quarantines and reopens. After every step the invariants are
// re-derived, every servable entry verifies against its keys, and the view the
// store built in place — by the diffing save path, mostly — must equal the one
// NewStore rebuilds from the same directory.
func TestStoreInvariantsSeeded(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			storeInvariantSequence(t, seed, 60)
		})
	}
}

func storeInvariantSequence(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := filepath.Join(t.TempDir(), "s")
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Half of all writes draw from a small shared alphabet, so guests repeat
	// pages internally and share them with each other.
	alphabet := make([][]byte, 24)
	for i := range alphabet {
		alphabet[i] = make([]byte, vm.PageSize)
		rng.Read(alphabet[i])
	}
	page := make([]byte, vm.PageSize)
	write := func(v *vm.VM, i int) {
		if rng.Intn(2) == 0 {
			v.WritePage(i, alphabet[rng.Intn(len(alphabet))])
			return
		}
		rng.Read(page)
		v.WritePage(i, page)
	}
	churn := func(v *vm.VM, frac float64) {
		for n := int(frac*float64(v.NumPages()) + 0.5); n > 0; n-- {
			write(v, rng.Intn(v.NumPages()))
		}
	}
	guest := func(name string, pages int) *vm.VM {
		v := newVM(t, name, pages, rng.Int63())
		churn(v, 1)
		return v
	}
	names := []string{"vm0", "vm1", "vm2"}
	guests := map[string]*vm.VM{}
	for _, name := range names {
		guests[name] = guest(name, 32)
	}

	diffSaves := 0
	for step := 0; step < steps; step++ {
		name := names[rng.Intn(len(names))]
		v := guests[name]
		var op string
		switch r := rng.Intn(24); {
		case r < 8:
			frac := []float64{0, 0.05, 0.5, 1}[rng.Intn(4)]
			// Keyed from a complete digest table, as a migration leaves it.
			op = fmt.Sprintf("Save(%s, churn %g, table complete)", name, frac)
			churn(v, frac)
			v.CompleteDigests()
			if info, ok := s.Entry(name); ok && info.State != EntryQuarantined && info.Pages == v.NumPages() {
				diffSaves++
			}
			err = s.Save(v)
		case r < 10:
			op = fmt.Sprintf("SaveSalvage(%s)", name)
			churn(v, 0.05)
			err = s.SaveSalvage(v)
		case r < 11:
			pages := []int{16, 32, 48}[rng.Intn(3)]
			op = fmt.Sprintf("Save(%s resized to %d pages)", name, pages)
			guests[name] = guest(name, pages)
			err = s.Save(guests[name])
		case r < 13:
			op = fmt.Sprintf("Remove(%s)", name)
			err = s.Remove(name)
		case r < 16:
			op = "GC"
			_, err = s.GC()
		case r < 17:
			op = fmt.Sprintf("Quarantine(%s)", name)
			err = s.Quarantine(name, "invariant test")
		case r < 18:
			// Rot one payload byte, then reopen: recovery sets the segment
			// aside and quarantines whatever depended on it, leaving entries
			// whose keys no longer resolve — which no later save may diff
			// against.
			segs := s.Segments()
			if len(segs) == 0 {
				continue
			}
			seg := segs[rng.Intn(len(segs))]
			op = fmt.Sprintf("rot %s, reopen", seg.Name)
			f, ferr := os.OpenFile(filepath.Join(dir, seg.Name), os.O_RDWR, 0)
			if ferr != nil {
				t.Fatal(ferr)
			}
			off := segPayloadOffset(rng.Intn(seg.Pages)) + int64(rng.Intn(vm.PageSize))
			b := []byte{0}
			if _, ferr = f.ReadAt(b, off); ferr == nil {
				b[0] ^= 0x80
				_, ferr = f.WriteAt(b, off)
			}
			f.Close()
			if ferr != nil {
				t.Fatal(ferr)
			}
			s, err = NewStore(dir)
		case r < 20:
			op = "reopen"
			s, err = NewStore(dir)
		default:
			op, err = streamStep(s, v, rng, churn)
			if info, ok := s.Entry(name); ok && strings.Contains(op, "complete") && info.Pages == v.NumPages() {
				diffSaves++
			}
		}
		if err != nil {
			t.Fatalf("step %d %s: %v", step, op, err)
		}
		checkInvariants(t, s)
		if tmp := tempFiles(t, dir); len(tmp) != 0 {
			t.Errorf("step %d %s: temp files %v outlive it", step, op, tmp)
		}
		entries, _ := s.Entries()
		for _, e := range entries {
			if e.State != EntryQuarantined {
				if err := s.Verify(e.Name); err != nil {
					t.Errorf("step %d %s: %v", step, op, err)
				}
			}
		}
		rebuilt, err := NewStore(dir)
		if err != nil {
			t.Fatalf("step %d %s: reopen: %v", step, op, err)
		}
		sameView(t, fmt.Sprintf("step %d %s", step, op), s, rebuilt)
		if t.Failed() {
			t.Fatalf("invariants broken at step %d (%s), seed sequence stops here", step, op)
		}
	}
	if diffSaves == 0 {
		t.Error("no save replaced a servable entry of the same length: the diff path went unexercised")
	}
}

// streamStep saves v through a save stream the way a migration feeds one:
// pages handed over in random order — some twice, some whose content the pool
// already holds — then the guest churns and some pages, rewritten or not, are
// handed over again. A collection may run while the stream is open. The
// stream is then aborted, or committed as a complete entry (keyed by a digest
// table or by a rehash) or as a partial one. It returns the step's name.
func streamStep(s *Store, v *vm.VM, rng *rand.Rand, churn func(*vm.VM, float64)) (string, error) {
	st := s.OpenSave(v.Name())
	buf := make([]byte, vm.PageSize)
	add := func(n int) {
		for ; n > 0; n-- {
			i := rng.Intn(v.NumPages())
			v.ReadPage(i, buf)
			st.Add(ObjectAlgorithm.Page(buf), buf)
		}
	}
	add(v.NumPages() / 2)
	churn(v, []float64{0, 0.05, 0.5}[rng.Intn(3)])
	add(v.NumPages() / 2)
	op := fmt.Sprintf("stream %s", v.Name())
	if rng.Intn(3) == 0 {
		op += ", GC"
		if _, err := s.GC(); err != nil {
			return op, err
		}
	}
	var err error
	switch rng.Intn(4) {
	case 0:
		op += ", Abort"
		st.Abort()
	case 1:
		op += ", commit complete"
		v.CompleteDigests()
		_, err = st.Commit(v, EntryComplete)
	case 2:
		op += ", commit complete rehashed"
		_, err = st.Commit(v, EntryComplete)
	default:
		op += ", commit partial"
		_, err = st.Commit(v, EntryPartial)
	}
	return op, err
}

// TestSaveAfterCompactionRewritesDeadContent: a compaction drops the dead
// objects whose canonical copy was the compacted segment from the pool index,
// so a later save of that content writes it anew instead of deduplicating
// against a payload that no longer exists on disk.
func TestSaveAfterCompactionRewritesDeadContent(t *testing.T) {
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
	if rep, err := s.GC(); err != nil { // 4/8 dead -> compaction threshold hit
		t.Fatal(err)
	} else if rep.SegmentsCompacted != 1 {
		t.Fatalf("gc: %+v, want one compaction", rep)
	}
	checkInvariants(t, s)

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
	checkInvariants(t, s)
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
