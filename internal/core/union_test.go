package core

import (
	"testing"

	"vecycle/internal/vm"
)

// TestUnionBootstrapFreshVM is the warm-host acceptance case: a VM that has
// never visited the destination migrates onto a host whose store holds a
// different VM's checkpoint. The content-addressed pool announces the union
// of resident content, so every page the newcomer shares with the resident
// crosses the wire as a checksum, not a payload.
func TestUnionBootstrapFreshVM(t *testing.T) {
	const pages = 32
	store := newStore(t)

	// A resident neighbor's checkpoint warms the host.
	neighbor := newVM(t, "neighbor", pages, 3)
	if err := neighbor.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(neighbor); err != nil {
		t.Fatal(err)
	}

	// The fresh VM shares exactly half its pages with the neighbor.
	src := newVM(t, "vm0", pages, 9)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, vm.PageSize)
	for i := 0; i < pages/2; i++ {
		neighbor.ReadPage(i, buf)
		src.InstallPage(i, buf)
	}

	var sawUnion bool
	dst := newVM(t, "vm0", pages, 2)
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true},
		DestOptions{Store: store, VerifyPayloads: true, OnEvent: func(e Event) {
			if e.Kind == EventUnion {
				sawUnion = true
			}
		}})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs after union-bootstrap migration (page %d)",
			src.FirstDifference(dst))
	}
	if !dres.UsedCheckpoint || !dres.UnionBootstrap {
		t.Errorf("UsedCheckpoint=%v UnionBootstrap=%v, want both true",
			dres.UsedCheckpoint, dres.UnionBootstrap)
	}
	if dres.ResumedFromPartial {
		t.Error("union bootstrap misreported as a salvage resume")
	}
	if !sawUnion {
		t.Error("no EventUnion emitted")
	}
	// The shared half rode the announcement: checksum frames, no payloads.
	if sm.PagesSum != pages/2 {
		t.Errorf("source sent %d checksum pages, want %d", sm.PagesSum, pages/2)
	}
	if got := dres.Metrics.PagesReusedFromDisk; got != pages/2 {
		t.Errorf("destination resolved %d pages from the pool, want %d", got, pages/2)
	}
}

// TestUnionBootstrapEmptyStore keeps the baseline intact: an empty store has
// no union to announce, so the migration runs full with no checkpoint bits
// set.
func TestUnionBootstrapEmptyStore(t *testing.T) {
	src := newVM(t, "vm0", 8, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 8, 2)
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true},
		DestOptions{Store: newStore(t), VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatal("memory differs after baseline migration")
	}
	if dres.UsedCheckpoint || dres.UnionBootstrap {
		t.Errorf("empty store set UsedCheckpoint=%v UnionBootstrap=%v",
			dres.UsedCheckpoint, dres.UnionBootstrap)
	}
	if sm.PagesSum != 0 {
		t.Errorf("empty store still produced %d checksum pages", sm.PagesSum)
	}
}
