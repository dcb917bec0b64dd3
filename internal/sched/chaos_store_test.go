package sched

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/core"
	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// Storage chaos: every test here builds a host whose checkpoint store runs
// on an injected filesystem (checkpoint.NewStoreFS + faultfs) and asserts
// the graceful-degradation ladder's contract — a completed transfer is
// never failed by a storage fault, the guest's memory arrives intact, and
// every rung taken is visible in vecycle_degraded_total and the trace.

// newFaultHost builds a host whose store routes all disk I/O through inj.
func newFaultHost(t *testing.T, name string, inj *faultfs.Injector) *Host {
	t.Helper()
	st, err := checkpoint.NewStoreFS(filepath.Join(t.TempDir(), name), inj.FS(faultfs.OS))
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHostWithStore(name, st)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// scrape renders a host's metrics registry as Prometheus text.
func scrape(t *testing.T, h *Host) string {
	t.Helper()
	var sb strings.Builder
	if err := h.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// traceJSON renders a host's completed migration traces as JSONL.
func traceJSON(t *testing.T, h *Host) string {
	t.Helper()
	var sb strings.Builder
	if err := h.Traces().WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// fingerprintEqual fails the test unless the landed VM holds exactly the
// memory the guest held at departure.
func fingerprintEqual(t *testing.T, want []uint64, landed *vm.VM) {
	t.Helper()
	got := landed.Fingerprint64()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("page %d differs after migration: data loss", i)
		}
	}
}

// TestChaosStoreKeepCheckpointENOSPC is the issue's acceptance scenario:
// the source's disk fills during the post-migration KeepCheckpoint save.
// The migration must still succeed on its single attempt — the retry loop
// is for transfer failures, not persist failures — the guest must run at
// the destination, and the rung must be recorded.
func TestChaosStoreKeepCheckpointENOSPC(t *testing.T) {
	inj := faultfs.NewInjector()
	src := newFaultHost(t, "alpha", inj)
	t.Cleanup(func() { src.Close() })
	dst := newHost(t, "beta")
	addr := listen(t, dst)

	v := newGuest(t, "vm0", 256)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	want := v.Fingerprint64()
	src.AddVM(v)

	inj.Arm(faultfs.Fault{Op: faultfs.OpWrite, Path: ".seg", Err: faultfs.ErrENOSPC, Times: -1})

	attempts := 0
	_, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{
		Recycle:        true,
		KeepCheckpoint: true,
		Retry:          RetryPolicy{Attempts: 3, Backoff: time.Millisecond},
		OnAttempt:      func(int, core.Metrics, error) { attempts++ },
	})
	if err != nil {
		t.Fatalf("ENOSPC during KeepCheckpoint failed the migration: %v", err)
	}
	if attempts != 1 {
		t.Errorf("ran %d attempts, want 1 (persist failures must not enter the retry loop)", attempts)
	}
	waitFor(t, func() bool { _, ok := dst.VM("vm0"); return ok }, "guest never registered at the destination")
	landed, _ := dst.VM("vm0")
	fingerprintEqual(t, want, landed)

	if _, ok := src.Store().Entry("vm0"); ok {
		t.Error("source store holds an entry despite the injected ENOSPC")
	}
	metrics := scrape(t, src)
	if !strings.Contains(metrics, `vecycle_degraded_total{host="alpha",stage="keep-checkpoint",fault="enospc"} 1`) {
		t.Errorf("keep-checkpoint degradation not counted; metrics:\n%s", metrics)
	}
	if strings.Contains(metrics, `vecycle_migration_retries_total{host="alpha"}`) {
		t.Error("retry counter incremented; the retry loop must not see persist failures")
	}
	if tr := traceJSON(t, src); !strings.Contains(tr, `"kind":"degraded"`) ||
		!strings.Contains(tr, "keep-checkpoint:enospc") {
		t.Error("trace is missing the degraded event")
	}
}

// TestChaosStoreGCRetryRecovers: when the first save fails with ENOSPC but
// a collection pass completes, the gc-then-retry rung saves successfully
// and no degradation is recorded.
func TestChaosStoreGCRetryRecovers(t *testing.T) {
	inj := faultfs.NewInjector()
	src := newFaultHost(t, "alpha", inj)
	t.Cleanup(func() { src.Close() })
	dst := newHost(t, "beta")
	addr := listen(t, dst)

	// Leave a dead segment in the pool: save a throwaway VM, then remove
	// its entry without collecting — the ladder's GC pass has real work.
	junk := newGuest(t, "junk", 64)
	if err := junk.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	if err := src.Store().Save(junk); err != nil {
		t.Fatal(err)
	}
	if err := src.Store().Remove("junk"); err != nil {
		t.Fatal(err)
	}

	v := newGuest(t, "vm0", 64)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	src.AddVM(v)

	// Exactly one injected ENOSPC: the first save fails, the ladder runs
	// GC and the retried save goes through.
	inj.Arm(faultfs.Fault{Op: faultfs.OpWrite, Path: ".seg", Err: faultfs.ErrENOSPC, Times: 1})

	if _, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{
		Recycle: true, KeepCheckpoint: true,
	}); err != nil {
		t.Fatal(err)
	}
	info, ok := src.Store().Entry("vm0")
	if !ok || info.State != checkpoint.EntryComplete {
		t.Fatalf("gc-then-retry did not complete the save (entry=%+v ok=%v)", info, ok)
	}
	if strings.Contains(scrape(t, src), `vecycle_degraded_total{host="alpha"`) {
		t.Error("a recovered save must not count as a degradation")
	}
}

// TestChaosStoreSaveArrivalsEIO: the destination's arrival persist fails
// with EIO; the arrival itself must register and the rung be recorded on
// the destination.
func TestChaosStoreSaveArrivalsEIO(t *testing.T) {
	inj := faultfs.NewInjector()
	dst := newFaultHost(t, "beta", inj)
	dst.SaveArrivals = true
	addr := listen(t, dst)
	src := newHost(t, "alpha")
	t.Cleanup(func() { src.Close() })

	v := newGuest(t, "vm0", 128)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	want := v.Fingerprint64()
	src.AddVM(v)

	inj.Arm(faultfs.Fault{Op: faultfs.OpCreate, Path: ".seg", Times: -1})

	if _, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{Recycle: true}); err != nil {
		t.Fatalf("EIO during SaveArrivals failed the migration: %v", err)
	}
	waitFor(t, func() bool { _, ok := dst.VM("vm0"); return ok }, "guest never registered at the destination")
	landed, _ := dst.VM("vm0")
	fingerprintEqual(t, want, landed)
	waitFor(t, func() bool {
		return strings.Contains(scrape(t, dst), `vecycle_degraded_total{host="beta",stage="save-arrivals",fault="eio"} 1`)
	}, "save-arrivals degradation not counted on the destination")
}

// TestChaosStoreSalvageDegraded: the wire dies mid-round AND the
// destination's salvage persist fails. The salvage loss must be recorded
// as a degradation, and the retry must still converge — from zero, since
// nothing was salvaged.
func TestChaosStoreSalvageDegraded(t *testing.T) {
	inj := faultfs.NewInjector()
	dst := newFaultHost(t, "beta", inj)
	var handled atomic.Int64
	dst.OnError = func(error) { handled.Add(1) }
	addr := listen(t, dst)
	src := newHost(t, "alpha")
	t.Cleanup(func() { src.Close() })

	// Pages arrive in coalesced range frames of up to 256 pages, and a cut
	// mid-frame installs nothing — so the guest spans several frames and
	// the cut falls after the first complete one, leaving real progress
	// for the salvage to (fail to) persist.
	v := newGuest(t, "vm0", 2048)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	want := v.Fingerprint64()
	src.AddVM(v)

	// Every store write fails: the salvage after the cut cannot persist.
	inj.Arm(faultfs.Fault{Op: faultfs.OpCreate, Path: ".seg", Times: -1})

	cd := &chaosDialer{t: t, schedule: []int64{1_200_000}, handled: &handled}
	src.DialFunc = cd.dial

	if _, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{
		Recycle: true,
		Retry:   RetryPolicy{Attempts: 2, Backoff: time.Millisecond},
	}); err != nil {
		t.Fatalf("retry did not converge: %v", err)
	}
	waitFor(t, func() bool { _, ok := dst.VM("vm0"); return ok }, "guest never registered at the destination")
	landed, _ := dst.VM("vm0")
	fingerprintEqual(t, want, landed)

	metrics := scrape(t, dst)
	if !strings.Contains(metrics, `vecycle_degraded_total{host="beta",stage="salvage",fault="eio"}`) {
		t.Errorf("salvage degradation not counted; metrics:\n%s", metrics)
	}
	if !strings.Contains(metrics, `vecycle_salvage_total{host="beta",outcome="write-failed"}`) {
		t.Error("salvage write-failed outcome not counted")
	}
}

// TestChaosStoreRecycleReadQuarantine: the destination bootstraps from a
// checkpoint whose segment bytes go bad mid-merge — after the bootstrap
// restore, the first ReadBlock for a moved page hits EIO. The attempt must
// fail with a retryable recycle-read MigrationError (visible to errors.As
// in the handler's error), the entry must be quarantined, and the retry
// must converge over the wire with zero data loss.
func TestChaosStoreRecycleReadQuarantine(t *testing.T) {
	inj := faultfs.NewInjector()
	dst := newFaultHost(t, "beta", inj)
	var handled atomic.Int64
	var mu sync.Mutex
	var destErrs []error
	dst.OnError = func(err error) {
		mu.Lock()
		destErrs = append(destErrs, err)
		mu.Unlock()
		handled.Add(1)
	}
	addr := listen(t, dst)
	src := newHost(t, "alpha")
	t.Cleanup(func() { src.Close() })

	const pages = 64
	v := newGuest(t, "vm0", pages)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	want := v.Fingerprint64()
	src.AddVM(v)

	// Pre-seed the destination's store with a checkpoint of the same VM
	// whose content is the guest's with pages swapped pairwise: the
	// bootstrap restores it, the announcement covers every arriving sum,
	// and each swapped position mismatches in place — forcing ReadBlock
	// lookups mid-merge.
	clone := newGuest(t, "vm0", pages)
	if err := clone.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	a := make([]byte, vm.PageSize)
	b := make([]byte, vm.PageSize)
	for i := 0; i < 16; i += 2 {
		clone.ReadPage(i, a)
		clone.ReadPage(i+1, b)
		clone.InstallPage(i, b)
		clone.InstallPage(i+1, a)
	}
	if err := dst.Store().Save(clone); err != nil {
		t.Fatal(err)
	}

	// Count the segment reads one restore performs with a latency-only rule
	// (fires, injects nothing). The EIO rule is armed past that count, so
	// the migration's own bootstrap restore — identical — succeeds and the
	// fault lands on mid-merge ReadBlocks.
	inj.Arm(faultfs.Fault{Op: faultfs.OpReadAt, Path: ".seg", Times: -1, Latency: time.Nanosecond})
	scratch := newGuest(t, "vm0", pages)
	cp, err := dst.Store().Restore("vm0", checksum.Default, scratch)
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()
	restoreReads := len(inj.Shots())
	inj.Disarm()
	if restoreReads == 0 {
		t.Fatal("restore performed no segment reads; the counting rule is broken")
	}
	inj.Arm(faultfs.Fault{Op: faultfs.OpReadAt, Path: ".seg", After: restoreReads, Times: -1})

	cd := &chaosDialer{t: t, handled: &handled}
	src.DialFunc = cd.dial

	if _, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{
		Recycle: true,
		Retry:   RetryPolicy{Attempts: 3, Backoff: time.Millisecond},
	}); err != nil {
		t.Fatalf("retry did not converge after the recycle-read fault: %v", err)
	}
	waitFor(t, func() bool { _, ok := dst.VM("vm0"); return ok }, "guest never registered at the destination")
	landed, _ := dst.VM("vm0")
	fingerprintEqual(t, want, landed)

	// The failed attempt's error, as the destination handler saw it, must
	// round-trip the taxonomy: errors.As finds the classified
	// MigrationError, errors.Is still reaches the injected syscall error.
	mu.Lock()
	errs := append([]error(nil), destErrs...)
	mu.Unlock()
	found := false
	for _, derr := range errs {
		var me *core.MigrationError
		if !errors.As(derr, &me) || me.Stage != core.StageRecycleRead {
			continue
		}
		found = true
		if me.Class != core.ClassRetryable {
			t.Errorf("recycle-read classified %v, want retryable", me.Class)
		}
		if me.Fault != "eio" {
			t.Errorf("recycle-read fault label %q, want eio", me.Fault)
		}
		if !errors.Is(derr, syscall.EIO) {
			t.Error("errors.Is lost the injected EIO through the wrap chain")
		}
		if !Retryable(derr) {
			t.Error("Retryable() = false for a retryable recycle-read error")
		}
	}
	if !found {
		t.Errorf("no recycle-read MigrationError reached the handler; errors: %v", errs)
	}

	info, ok := dst.Store().Entry("vm0")
	if !ok || info.State != checkpoint.EntryQuarantined {
		t.Errorf("failing entry not quarantined (entry=%+v ok=%v)", info, ok)
	}
	if metrics := scrape(t, dst); !strings.Contains(metrics, `stage="recycle-read",fault="eio"`) {
		t.Errorf("recycle-read degradation not counted; metrics:\n%s", metrics)
	}
}

// TestChaosStoreInstallReadFailure: the destination's checkpoint opens fine —
// under the store's key algorithm the open reads no page — and then a segment
// read fails while the pages are being installed in the background, under
// round one. The merge's next wait for a span must surface it as the same
// retryable recycle-read MigrationError a failed block read raises; the entry
// is quarantined rather than salvaged over with the spans that made it; and
// the retry converges over the wire with zero data loss.
func TestChaosStoreInstallReadFailure(t *testing.T) {
	inj := faultfs.NewInjector()
	dst := newFaultHost(t, "beta", inj)
	var handled atomic.Int64
	var mu sync.Mutex
	var destErrs []error
	dst.OnError = func(err error) {
		mu.Lock()
		destErrs = append(destErrs, err)
		mu.Unlock()
		handled.Add(1)
	}
	addr := listen(t, dst)
	src := newHost(t, "alpha")
	t.Cleanup(func() { src.Close() })

	const pages = 4 * 256 // four install spans
	v := newGuest(t, "vm0", pages)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	if err := dst.Store().Save(v); err != nil {
		t.Fatal(err)
	}
	v.TouchRandomPages(pages / 16)
	want := v.Fingerprint64()
	src.AddVM(v)

	// Two span reads succeed, every later one fails.
	inj.Arm(faultfs.Fault{Op: faultfs.OpReadAt, Path: ".seg", After: 2, Times: -1})
	cd := &chaosDialer{t: t, handled: &handled}
	src.DialFunc = cd.dial
	var attempts []error
	if _, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{
		Recycle:   true,
		Retry:     RetryPolicy{Attempts: 3, Backoff: time.Millisecond},
		OnAttempt: func(_ int, _ core.Metrics, err error) { attempts = append(attempts, err) },
	}); err != nil {
		t.Fatalf("retry did not converge after the install read fault: %v", err)
	}
	waitFor(t, func() bool { _, ok := dst.VM("vm0"); return ok }, "guest never registered at the destination")
	landed, _ := dst.VM("vm0")
	fingerprintEqual(t, want, landed)
	if len(attempts) != 2 || attempts[0] == nil || attempts[1] != nil {
		t.Errorf("attempt outcomes %v, want one failure then success", attempts)
	}

	mu.Lock()
	errs := append([]error(nil), destErrs...)
	mu.Unlock()
	found := false
	for _, derr := range errs {
		var me *core.MigrationError
		if !errors.As(derr, &me) || me.Stage != core.StageRecycleRead {
			continue
		}
		found = true
		if me.Class != core.ClassRetryable || me.Fault != "eio" || !errors.Is(derr, syscall.EIO) || !Retryable(derr) {
			t.Errorf("install read failure classified %v/%q (retryable=%v): %v", me.Class, me.Fault, Retryable(derr), derr)
		}
	}
	if !found {
		t.Errorf("no recycle-read MigrationError reached the handler; errors: %v", errs)
	}
	if state, ok := dst.Store().State("vm0"); !ok || state != checkpoint.EntryQuarantined {
		t.Errorf("failing entry is %q (present=%v), want quarantined", state, ok)
	}
	if metrics := scrape(t, dst); !strings.Contains(metrics, `stage="recycle-read",fault="eio"`) {
		t.Errorf("recycle-read degradation not counted; metrics:\n%s", metrics)
	}
}

// TestChaosStoreMatrix is the chaos-store gate: one small migration per
// (store op site × fault kind × migration phase) cell, each with the fault
// armed for the whole run. Every cell must converge with the guest's
// memory intact — storage faults may cost checkpoints, never migrations.
func TestChaosStoreMatrix(t *testing.T) {
	type site struct {
		path string
		op   faultfs.Op
	}
	writeSites := []site{
		{".seg", faultfs.OpCreate},
		{".seg", faultfs.OpWrite},
		{".seg", faultfs.OpSync},
		{".seg", faultfs.OpRename},
		{".pmf", faultfs.OpCreate},
		{".pmf", faultfs.OpWrite},
		{"MANIFEST.json", faultfs.OpCreate},
		{"MANIFEST.json", faultfs.OpRename},
	}
	readSites := []site{
		{".seg", faultfs.OpOpen},
		{".seg", faultfs.OpReadAt},
		{".pmf", faultfs.OpOpen},
	}
	faults := []struct {
		name string
		arm  func(s site) (faultfs.Fault, bool)
	}{
		{"eio", func(s site) (faultfs.Fault, bool) {
			return faultfs.Fault{Op: s.op, Path: s.path, Err: faultfs.ErrEIO, Times: -1}, true
		}},
		{"enospc", func(s site) (faultfs.Fault, bool) {
			return faultfs.Fault{Op: s.op, Path: s.path, Err: faultfs.ErrENOSPC, Times: -1}, true
		}},
		{"torn", func(s site) (faultfs.Fault, bool) {
			if s.op != faultfs.OpWrite {
				return faultfs.Fault{}, false // torn writes only make sense on writes
			}
			return faultfs.Fault{Op: s.op, Path: s.path, TornBytes: 7, Times: -1}, true
		}},
	}

	const pages = 64
	run := func(t *testing.T, phase, faultName string, s site, arm func(site) (faultfs.Fault, bool)) {
		f, ok := arm(s)
		if !ok {
			t.Skip("fault kind not applicable to this op")
		}
		inj := faultfs.NewInjector()
		var src, dst *Host
		opts := MigrateOptions{Recycle: true, Retry: RetryPolicy{Attempts: 3, Backoff: time.Millisecond}}
		switch phase {
		case "keep-checkpoint":
			src = newFaultHost(t, "alpha", inj)
			dst = newHost(t, "beta")
			opts.KeepCheckpoint = true
		case "save-arrivals":
			src = newHost(t, "alpha")
			dst = newFaultHost(t, "beta", inj)
			dst.SaveArrivals = true
		case "bootstrap":
			src = newHost(t, "alpha")
			dst = newFaultHost(t, "beta", inj)
		}
		t.Cleanup(func() { src.Close() })
		var handled atomic.Int64
		dst.OnError = func(error) { handled.Add(1) }
		addr := listen(t, dst)

		v := newGuest(t, "vm0", pages)
		if err := v.FillRandom(0.9); err != nil {
			t.Fatal(err)
		}
		want := v.Fingerprint64()
		src.AddVM(v)

		if phase == "bootstrap" {
			// Give the destination a checkpoint to bootstrap from, so the
			// read fault has something to hit.
			clone := newGuest(t, "vm0", pages)
			if err := clone.FillRandom(0.9); err != nil {
				t.Fatal(err)
			}
			if err := dst.Store().Save(clone); err != nil {
				t.Fatal(err)
			}
		}
		inj.Arm(f)

		// Serialize retries behind the destination's handler, so a failed
		// attempt's arrival reservation is released before the redial.
		cd := &chaosDialer{t: t, handled: &handled}
		src.DialFunc = cd.dial

		if _, err := src.MigrateTo(context.Background(), addr, "vm0", opts); err != nil {
			t.Fatalf("phase %s, fault %s on %s %s: migration failed: %v", phase, faultName, s.op, s.path, err)
		}
		waitFor(t, func() bool { _, ok := dst.VM("vm0"); return ok }, "guest never registered at the destination")
		landed, _ := dst.VM("vm0")
		fingerprintEqual(t, want, landed)
	}

	for _, phase := range []string{"keep-checkpoint", "save-arrivals"} {
		for _, s := range writeSites {
			for _, fk := range faults {
				phase, s, fk := phase, s, fk
				t.Run(fmt.Sprintf("%s/%s-%s/%s", phase, s.op, strings.TrimPrefix(s.path, "."), fk.name), func(t *testing.T) {
					t.Parallel()
					run(t, phase, fk.name, s, fk.arm)
				})
			}
		}
	}
	for _, s := range readSites {
		s := s
		t.Run(fmt.Sprintf("bootstrap/%s-%s/eio", s.op, strings.TrimPrefix(s.path, ".")), func(t *testing.T) {
			t.Parallel()
			run(t, "bootstrap", "eio", s, faults[0].arm)
		})
	}
}
