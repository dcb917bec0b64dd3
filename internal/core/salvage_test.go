package core

import (
	"context"
	"net"
	"sync"
	"testing"

	"vecycle/internal/checkpoint"
	"vecycle/internal/vm"
)

// cutMigration runs a migration whose source connection resets after
// resetAfter bytes, returning both sides' outcomes.
func cutMigration(t *testing.T, src, dst *vm.VM, resetAfter int64, sopts SourceOptions, dopts DestOptions) (DestResult, error, error) {
	t.Helper()
	a, b := net.Pipe()
	cut := NewFaultConn(a, FaultConfig{ResetAfterBytes: resetAfter})
	var (
		wg   sync.WaitGroup
		serr error
		dres DestResult
		derr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, serr = MigrateSource(context.Background(), cut, src, sopts)
		a.Close() // unblock the destination's pending read
	}()
	go func() {
		defer wg.Done()
		dres, derr = MigrateDest(context.Background(), b, dst, dopts)
		b.Close()
	}()
	wg.Wait()
	return dres, serr, derr
}

// TestSalvageThenResume is the end-to-end salvage contract at the engine
// level: an interrupted attempt persists a partial checkpoint, and the next
// attempt announces its sums so the source resends strictly fewer full
// pages — with the hello-ack reporting the partial bootstrap and delta
// encoding disabled against it.
func TestSalvageThenResume(t *testing.T) {
	t.Run("sequential", salvageThenResume)
}

func salvageThenResume(t *testing.T) {
	const pages = 512
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)

	// Attempt 1: the wire dies mid round 1. No checkpoint exists yet,
	// so every streamed page is a full page — coalesced into
	// MaxRangePages-sized range frames (~1 MiB each), so the cut
	// must fall beyond the first complete frame for any progress to
	// have landed.
	dst1 := newVM(t, "vm0", pages, 2)
	dres, serr, derr := cutMigration(t, src, dst1, 1_200_000,
		SourceOptions{Recycle: true},
		DestOptions{Store: store, VerifyPayloads: true})
	if serr == nil || derr == nil {
		t.Fatalf("cut migration succeeded (source=%v dest=%v)", serr, derr)
	}
	if dres.SalvagePages == 0 {
		t.Fatal("no salvage checkpoint written")
	}
	info, ok := store.Entry("vm0")
	if !ok || info.State != checkpoint.EntryPartial {
		t.Fatalf("store entry after cut = %+v, %v; want partial", info, ok)
	}

	// Attempt 2: clean wire. The announcement from the salvage image
	// must eliminate every page the first attempt installed.
	dst2 := newVM(t, "vm0", pages, 3)
	sm, dres2 := migrate(t, src, dst2,
		SourceOptions{Recycle: true},
		DestOptions{Store: store, VerifyPayloads: true})
	if !src.MemEqual(dst2) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst2))
	}
	if !dres2.ResumedFromPartial {
		t.Error("destination did not report a partial bootstrap")
	}
	if int64(sm.PagesFull) > int64(pages)-dres.SalvagePages {
		t.Errorf("resumed attempt sent %d full pages; attempt 1 salvaged %d of %d",
			sm.PagesFull, dres.SalvagePages, pages)
	}
	if sm.PagesSum == 0 {
		t.Error("resumed attempt reused nothing from the salvage image")
	}
}

// TestSalvageSkippedWithoutProgress: a failure before any page installs
// must not write a salvage entry (and must not demote an existing complete
// checkpoint to partial).
func TestSalvageSkippedWithoutProgress(t *testing.T) {
	const pages = 256
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil { // pre-existing complete checkpoint
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", pages, 2)
	// Cut inside the hello exchange: nothing installed beyond bootstrap.
	_, serr, derr := cutMigration(t, src, dst, 10,
		SourceOptions{Recycle: true},
		DestOptions{Store: store, VerifyPayloads: true})
	if serr == nil && derr == nil {
		t.Fatal("cut migration succeeded")
	}
	info, ok := store.Entry("vm0")
	if !ok || info.State != checkpoint.EntryComplete {
		t.Fatalf("entry = %+v, %v; want untouched complete checkpoint", info, ok)
	}
}

// TestSalvageDisabled: NoSalvage keeps failed migrations from writing
// partial entries.
func TestSalvageDisabled(t *testing.T) {
	const pages = 256
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	dst := newVM(t, "vm0", pages, 2)
	_, serr, _ := cutMigration(t, src, dst, 300_000,
		SourceOptions{Recycle: true},
		DestOptions{Store: store, NoSalvage: true, VerifyPayloads: true})
	if serr == nil {
		t.Fatal("cut migration succeeded")
	}
	if _, ok := store.Entry("vm0"); ok {
		t.Error("NoSalvage still wrote a store entry")
	}
}

// TestPartialAnnouncedDespiteOfferedRoot: a salvage image has no name a
// source could match — even when its key list happens to be the very one the
// source's complete entry holds, so the two page manifests hash alike. The
// destination bootstraps from it and announces it, as for any unnamed source.
func TestPartialAnnouncedDespiteOfferedRoot(t *testing.T) {
	const pages = 256
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	store, srcStore := newStore(t), newStore(t)
	if err := store.SaveSalvage(src); err != nil {
		t.Fatal(err)
	}
	if err := srcStore.Save(src); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := store.Mirror("vm0"); ok {
		t.Fatal("a salvage entry is offered as a mirror")
	}
	dst := newVM(t, "vm0", pages, 2)
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true, Mirror: mirrorOf(t, srcStore, "vm0")},
		DestOptions{Store: store, VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if !dres.ResumedFromPartial {
		t.Error("salvage image not bootstrapped from")
	}
	if sm.AnnounceBytes == 0 || dres.Metrics.AnnounceBytes == 0 {
		t.Errorf("announcement elided against a salvage image (source saw %d bytes, destination sent %d)",
			sm.AnnounceBytes, dres.Metrics.AnnounceBytes)
	}
	if sm.PagesFull != 0 {
		t.Errorf("source resent %d full pages the salvage image announced", sm.PagesFull)
	}
}
