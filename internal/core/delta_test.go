package core

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// partialUpdate rewrites a small slice inside each of the given pages,
// leaving the rest of the page intact — the pattern where delta encoding
// shines (a few cache lines of a dirty page actually changed).
func partialUpdate(t *testing.T, v *vm.VM, pages []int) {
	t.Helper()
	buf := make([]byte, vm.PageSize)
	for _, p := range pages {
		v.ReadPage(p, buf)
		for i := 100; i < 164; i++ {
			buf[i] ^= 0xFF
		}
		v.WritePage(p, buf)
	}
}

func TestDeltaMigration(t *testing.T) {
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	// Both sides hold the same checkpoint: the destination's store and the
	// source's delta-base mirror.
	destStore, srcStore := newStore(t), newStore(t)
	if err := destStore.Save(src); err != nil {
		t.Fatal(err)
	}
	if err := srcStore.Save(src); err != nil {
		t.Fatal(err)
	}
	base, err := srcStore.Restore("vm0", checksum.Default, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()

	// 10 pages change partially, 4 pages change completely.
	partialUpdate(t, src, []int{3, 7, 11, 19, 23, 29, 31, 37, 41, 43})
	full := bytes.Repeat([]byte{0xEE}, vm.PageSize)
	for _, p := range []int{50, 51, 52, 53} {
		buf := append([]byte(nil), full...)
		buf[0] = byte(p) // distinct contents
		src.WritePage(p, buf)
	}

	dst := newVM(t, "vm0", 64, 2)
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true, DeltaBase: base},
		DestOptions{Store: destStore, VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if sm.PagesDelta != 10 {
		t.Errorf("PagesDelta = %d, want 10", sm.PagesDelta)
	}
	if dres.Metrics.PagesDelta != 10 {
		t.Errorf("destination PagesDelta = %d, want 10", dres.Metrics.PagesDelta)
	}
	if sm.PagesFull != 4 {
		t.Errorf("PagesFull = %d, want 4 (deltas are counted separately)", sm.PagesFull)
	}
	if sm.PagesSum != 50 {
		t.Errorf("PagesSum = %d, want 50", sm.PagesSum)
	}
	if sm.DeltaSavedBytes <= 0 {
		t.Error("deltas saved nothing")
	}
	// Wire bytes: 10 partially-changed pages cost ~100 B each instead of
	// 4 KiB. Compare with the same migration without deltas.
	dst2 := newVM(t, "vm0", 64, 3)
	sm2, _ := migrate(t, src, dst2,
		SourceOptions{Recycle: true},
		DestOptions{Store: destStore, VerifyPayloads: true})
	if sm.BytesSent >= sm2.BytesSent {
		t.Errorf("delta migration sent %d bytes, plain recycle %d", sm.BytesSent, sm2.BytesSent)
	}
}

func TestDeltaStaleBaseDetected(t *testing.T) {
	// The source's mirror disagrees with the destination's checkpoint: the
	// delta applies against the wrong base and the mandatory checksum
	// verification must catch it.
	src := newVM(t, "vm0", 16, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	destStore := newStore(t)
	// The source's mirror is *almost* the destination's checkpoint: page 2
	// diverged slightly after the mirror was taken, so a delta against the
	// mirror still comes out small — but applies against the wrong base.
	staleStore := newStore(t)
	if err := staleStore.Save(src); err != nil {
		t.Fatal(err)
	}
	partialUpdate(t, src, []int{2}) // dest checkpoint = this middle state
	if err := destStore.Save(src); err != nil {
		t.Fatal(err)
	}
	base, err := staleStore.Restore("vm0", checksum.Default, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()

	// Revert page 2 to the mirror's state (the XOR update is an
	// involution): the delta against the mirror is empty, but the
	// destination's frame holds the middle state — a divergence the delta's
	// zero runs silently copy, which only the checksum can expose.
	partialUpdate(t, src, []int{2})

	dst := newVM(t, "vm0", 16, 2)
	a, b := net.Pipe()
	var wg sync.WaitGroup
	var derr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = MigrateSource(context.Background(), a, src, SourceOptions{Recycle: true, DeltaBase: base})
		a.Close()
	}()
	go func() {
		defer wg.Done()
		_, derr = MigrateDest(context.Background(), b, dst, DestOptions{Store: destStore})
		b.Close()
	}()
	wg.Wait()
	if !errors.Is(derr, ErrProtocol) {
		t.Errorf("stale delta base: destination error = %v, want ErrProtocol", derr)
	}
}

func TestDeltaDisabledWithoutDestCheckpoint(t *testing.T) {
	// The destination has no checkpoint: deltas must be suppressed even
	// though the source configured a base.
	src := newVM(t, "vm0", 16, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	srcStore := newStore(t)
	if err := srcStore.Save(src); err != nil {
		t.Fatal(err)
	}
	base, err := srcStore.Restore("vm0", checksum.Default, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	partialUpdate(t, src, []int{2})

	dst := newVM(t, "vm0", 16, 2)
	sm, _ := migrate(t, src, dst,
		SourceOptions{Recycle: true, DeltaBase: base},
		DestOptions{Store: newStore(t), VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatal("memory differs")
	}
	if sm.PagesDelta != 0 {
		t.Errorf("sent %d deltas to a checkpoint-less destination", sm.PagesDelta)
	}
}

func TestDeltaComposesWithCompression(t *testing.T) {
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillCompressible(0.95); err != nil {
		t.Fatal(err)
	}
	destStore, srcStore := newStore(t), newStore(t)
	if err := destStore.Save(src); err != nil {
		t.Fatal(err)
	}
	if err := srcStore.Save(src); err != nil {
		t.Fatal(err)
	}
	base, err := srcStore.Restore("vm0", checksum.Default, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()

	// Partial changes (delta-friendly) plus whole-page compressible
	// rewrites (compression-friendly).
	partialUpdate(t, src, []int{1, 2, 3})
	buf := make([]byte, vm.PageSize)
	for j := range buf {
		buf[j] = byte(j % 5)
	}
	src.WritePage(10, buf)

	dst := newVM(t, "vm0", 64, 2)
	sm, _ := migrate(t, src, dst,
		SourceOptions{Recycle: true, DeltaBase: base, Compress: true},
		DestOptions{Store: destStore, VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if sm.PagesDelta != 3 {
		t.Errorf("PagesDelta = %d, want 3", sm.PagesDelta)
	}
	if sm.PagesCompressed != 1 {
		t.Errorf("PagesCompressed = %d, want 1", sm.PagesCompressed)
	}
}
