package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"vecycle/internal/checkpoint"
	"vecycle/internal/vm"
)

// engineSubtest names the subtest level kept by the tests that once looped
// over engine widths: the one engine runs no pipeline workers, as width 0 did.
const engineSubtest = "workers=0"

func newVM(t *testing.T, name string, pages int, seed int64) *vm.VM {
	t.Helper()
	v, err := vm.New(vm.Config{Name: name, MemBytes: int64(pages) * vm.PageSize, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func newStore(t *testing.T) *checkpoint.Store {
	t.Helper()
	s, err := checkpoint.NewStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	// A commit's flush runs behind it: let it land before the directory goes.
	t.Cleanup(func() { s.Flush() })
	return s
}

// migrate runs a full migration between src and dst over an in-memory pipe.
func migrate(t *testing.T, src, dst *vm.VM, sopts SourceOptions, dopts DestOptions) (Metrics, DestResult) {
	t.Helper()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	return migrateOver(t, a, b, src, dst, sopts, dopts)
}

// migrateOver runs a full migration with the source on a and the destination
// on b.
func migrateOver(t *testing.T, a, b io.ReadWriter, src, dst *vm.VM, sopts SourceOptions, dopts DestOptions) (Metrics, DestResult) {
	t.Helper()
	var (
		wg   sync.WaitGroup
		sm   Metrics
		serr error
		dres DestResult
		derr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		sm, serr = MigrateSource(context.Background(), a, src, sopts)
	}()
	go func() {
		defer wg.Done()
		dres, derr = MigrateDest(context.Background(), b, dst, dopts)
	}()
	wg.Wait()
	if serr != nil {
		t.Fatalf("source: %v", serr)
	}
	if derr != nil {
		t.Fatalf("destination: %v", derr)
	}
	return sm, dres
}

func TestBaselineMigration(t *testing.T) {
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 64, 2)
	sm, dres := migrate(t, src, dst, SourceOptions{}, DestOptions{VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if sm.PagesSum != 0 {
		t.Errorf("baseline sent %d checksum-only pages", sm.PagesSum)
	}
	if sm.PagesFull < 64 {
		t.Errorf("baseline sent %d full pages, want >= 64", sm.PagesFull)
	}
	if dres.UsedCheckpoint {
		t.Error("baseline used a checkpoint")
	}
	if sm.BytesSent < 64*vm.PageSize {
		t.Errorf("BytesSent = %d, below raw memory size", sm.BytesSent)
	}
}

func TestVeCycleIdleVMBestCase(t *testing.T) {
	// §4.4: an idle VM migrated back to a host holding a fresh checkpoint —
	// maximum similarity, traffic collapses to checksums.
	src := newVM(t, "vm0", 128, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 128, 2)
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true},
		DestOptions{Store: store, VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if !dres.UsedCheckpoint {
		t.Fatal("checkpoint not used")
	}
	if sm.PagesFull != 0 {
		t.Errorf("idle VM sent %d full pages, want 0", sm.PagesFull)
	}
	if sm.PagesSum != 128 {
		t.Errorf("PagesSum = %d, want 128", sm.PagesSum)
	}
	// Traffic: announcement + per-page sums, far below the 512 KiB of RAM.
	if sm.BytesSent >= 128*vm.PageSize/4 {
		t.Errorf("BytesSent = %d, want well below memory size", sm.BytesSent)
	}
	if dres.Metrics.PagesReusedInPlace != 128 {
		t.Errorf("PagesReusedInPlace = %d, want 128", dres.Metrics.PagesReusedInPlace)
	}
}

func TestVeCyclePartialUpdate(t *testing.T) {
	// Half the ramdisk updated since the checkpoint (Figure 7 semantics).
	src := newVM(t, "vm0", 100, 1)
	rd, err := src.NewRamdisk(0.9)
	if err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	if err := rd.UpdatePercent(50); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 100, 2)
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true},
		DestOptions{Store: store, VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	// 45 of 90 ramdisk pages updated; those go full, the rest by checksum.
	if sm.PagesFull != 45 {
		t.Errorf("PagesFull = %d, want 45", sm.PagesFull)
	}
	if sm.PagesSum != 55 {
		t.Errorf("PagesSum = %d, want 55", sm.PagesSum)
	}
	if dres.Metrics.PagesReusedInPlace != 55 {
		t.Errorf("PagesReusedInPlace = %d, want 55", dres.Metrics.PagesReusedInPlace)
	}
}

func TestVeCycleMovedContentReadFromDisk(t *testing.T) {
	// Content moved to a different frame after the checkpoint: the resident
	// frame mismatches, but the content exists in the checkpoint — the
	// lseek+read slow path of Listing 1.
	src := newVM(t, "vm0", 4, 1)
	pageA := bytes.Repeat([]byte{0xAA}, vm.PageSize)
	pageB := bytes.Repeat([]byte{0xBB}, vm.PageSize)
	src.WritePage(0, pageA)
	src.WritePage(1, pageB)
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	// Swap the two pages: contents unchanged as a set, frames dirty.
	src.WritePage(0, pageB)
	src.WritePage(1, pageA)

	dst := newVM(t, "vm0", 4, 2)
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true},
		DestOptions{Store: store, VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if sm.PagesFull != 0 {
		t.Errorf("PagesFull = %d, want 0 (all content in checkpoint)", sm.PagesFull)
	}
	if dres.Metrics.PagesReusedFromDisk != 2 {
		t.Errorf("PagesReusedFromDisk = %d, want 2 (swapped frames)", dres.Metrics.PagesReusedFromDisk)
	}
}

func TestRecycleWithoutCheckpointDegrades(t *testing.T) {
	src := newVM(t, "vm0", 32, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 32, 2)
	// Recycle requested, but the destination store is empty.
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true},
		DestOptions{Store: newStore(t), VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatal("memory differs")
	}
	if dres.UsedCheckpoint {
		t.Error("used a checkpoint that does not exist")
	}
	if sm.PagesSum != 0 {
		t.Errorf("degraded migration sent %d checksum pages", sm.PagesSum)
	}
}

// mirrorOf returns the store's complete entry of the VM as a source offers it.
func mirrorOf(t *testing.T, s *checkpoint.Store, name string) *Mirror {
	t.Helper()
	root, keys, ok := s.Mirror(name)
	if !ok {
		t.Fatalf("store holds no complete entry of %q to offer", name)
	}
	return &Mirror{Root: root, Keys: keys}
}

func TestPingPongSkipsAnnouncement(t *testing.T) {
	// A→B, both saving the moved state, then B→A naming that checkpoint: the
	// second leg must carry no bulk announcement yet still recycle.
	vmA := newVM(t, "vm0", 64, 1)
	if err := vmA.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	storeA, storeB := newStore(t), newStore(t)

	// Leg 1: A → B (no checkpoint at B yet; B saves what arrived).
	vmB := newVM(t, "vm0", 64, 2)
	if err := storeA.Save(vmA); err != nil { // A checkpoints on the way out
		t.Fatal(err)
	}
	migrate(t, vmA, vmB,
		SourceOptions{Recycle: true},
		DestOptions{Store: storeB, VerifyPayloads: true})
	if !vmA.MemEqual(vmB) {
		t.Fatal("leg 1 memory differs")
	}
	if err := storeB.Save(vmB); err != nil {
		t.Fatal(err)
	}

	// B runs a little, then migrates back to A. B's arrival image is A's
	// departure image — same key list, same root — so B's hello names it.
	vmB.TouchRandomPages(5)
	vmA2 := newVM(t, "vm0", 64, 3)
	var hello string
	sm2, dres2 := migrate(t, vmB, vmA2,
		SourceOptions{Recycle: true, Mirror: mirrorOf(t, storeB, "vm0"), OnEvent: func(e Event) {
			if e.Kind == EventHello {
				hello = e.Detail
			}
		}},
		DestOptions{Store: storeA, VerifyPayloads: true})
	if !vmB.MemEqual(vmA2) {
		t.Fatalf("leg 2 memory differs at page %d", vmB.FirstDifference(vmA2))
	}
	if sm2.AnnounceBytes != 0 {
		t.Errorf("ping-pong leg carried a %d-byte announcement", sm2.AnnounceBytes)
	}
	if dres2.Metrics.AnnounceBytes != 0 {
		t.Errorf("destination sent a %d-byte announcement despite the match", dres2.Metrics.AnnounceBytes)
	}
	// The pages the guest did not rewrite still hold the named checkpoint's
	// content: round one leaves them out, and the destination keeps them.
	if sm2.PagesKept == 0 || sm2.PagesKept != dres2.Metrics.PagesKept || sm2.PagesSum != 0 {
		t.Errorf("ping-pong leg: source kept %d pages and sent %d checksums, destination kept %d; want the same nonzero count kept and no checksum",
			sm2.PagesKept, sm2.PagesSum, dres2.Metrics.PagesKept)
	}
	if hello != "have_checkpoint=true manifest=match" {
		t.Errorf("source hello event detail = %q", hello)
	}
}

func TestLiveMigrationWithConcurrentWrites(t *testing.T) {
	src := newVM(t, "vm0", 256, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 256, 2)

	// Guest workload running during the migration; the Pause hook stops it
	// before the final round.
	stop := make(chan struct{})
	var workload sync.WaitGroup
	workload.Add(1)
	go func() {
		defer workload.Done()
		for {
			select {
			case <-stop:
				return
			default:
				src.TouchRandomPages(1)
			}
		}
	}()
	pause := func() {
		close(stop)
		workload.Wait()
	}

	sm, _ := migrate(t, src, dst,
		SourceOptions{Pause: pause, MaxRounds: 6, StopThreshold: 8},
		DestOptions{VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("live migration memory differs at page %d", src.FirstDifference(dst))
	}
	if sm.Rounds < 2 {
		t.Errorf("Rounds = %d, expected iterative rounds under active workload", sm.Rounds)
	}
}

func TestHelloRejectionWrongName(t *testing.T) {
	src := newVM(t, "alpha", 8, 1)
	dst := newVM(t, "beta", 8, 2)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	var serr, derr error
	wg.Add(2)
	go func() { defer wg.Done(); _, serr = MigrateSource(context.Background(), a, src, SourceOptions{}) }()
	go func() { defer wg.Done(); _, derr = MigrateDest(context.Background(), b, dst, DestOptions{}) }()
	wg.Wait()
	if !errors.Is(serr, ErrRejected) {
		t.Errorf("source error = %v, want ErrRejected", serr)
	}
	if !errors.Is(derr, ErrRejected) {
		t.Errorf("destination error = %v, want ErrRejected", derr)
	}
}

func TestHelloRejectionWrongSize(t *testing.T) {
	src := newVM(t, "vm0", 8, 1)
	dst := newVM(t, "vm0", 16, 2)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	var serr error
	wg.Add(2)
	go func() { defer wg.Done(); _, serr = MigrateSource(context.Background(), a, src, SourceOptions{}) }()
	go func() { defer wg.Done(); _, _ = MigrateDest(context.Background(), b, dst, DestOptions{}) }()
	wg.Wait()
	if !errors.Is(serr, ErrRejected) {
		t.Errorf("source error = %v, want ErrRejected", serr)
	}
}

func TestStaleCheckpointStillCorrect(t *testing.T) {
	// The checkpoint is from a much older state: correctness must not
	// depend on similarity.
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillRandom(0.5); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	// Rewrite nearly everything.
	rd, err := src.NewRamdisk(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.UpdatePercent(100); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 64, 2)
	sm, _ := migrate(t, src, dst,
		SourceOptions{Recycle: true},
		DestOptions{Store: store, VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if sm.PagesFull == 0 {
		t.Error("stale checkpoint produced no full transfers")
	}
}

// Property: for arbitrary source contents and an arbitrary checkpoint state
// (possibly unrelated), a VeCycle migration always reproduces the source
// memory exactly.
func TestMigrationCorrectnessProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns many migrations")
	}
	f := func(seed int64, updatePct uint8, pages uint8) bool {
		n := 8 + int(pages)%56 // 8..63 pages
		rng := rand.New(rand.NewSource(seed))
		src, err := vm.New(vm.Config{Name: "p", MemBytes: int64(n) * vm.PageSize, Seed: seed})
		if err != nil {
			return false
		}
		// Random initial content with duplicates: a small alphabet of page
		// bodies.
		body := func(b byte) []byte { return bytes.Repeat([]byte{b}, vm.PageSize) }
		for i := 0; i < n; i++ {
			src.WritePage(i, body(byte(rng.Intn(8))))
		}
		dir := t.TempDir()
		store, err := checkpoint.NewStore(filepath.Join(dir, "s"))
		if err != nil {
			return false
		}
		if err := store.Save(src); err != nil {
			return false
		}
		// Mutate a random subset.
		for i := 0; i < n; i++ {
			if rng.Intn(100) < int(updatePct)%101 {
				src.WritePage(i, body(byte(rng.Intn(16))))
			}
		}
		dst, err := vm.New(vm.Config{Name: "p", MemBytes: int64(n) * vm.PageSize, Seed: seed + 1})
		if err != nil {
			return false
		}
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		var wg sync.WaitGroup
		var serr, derr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, serr = MigrateSource(context.Background(), a, src, SourceOptions{Recycle: true})
		}()
		go func() {
			defer wg.Done()
			_, derr = MigrateDest(context.Background(), b, dst, DestOptions{Store: store, VerifyPayloads: true})
		}()
		wg.Wait()
		return serr == nil && derr == nil && src.MemEqual(dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
