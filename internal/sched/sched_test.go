package sched

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/core"
	"vecycle/internal/vm"
)

func newHost(t *testing.T, name string) *Host {
	t.Helper()
	h, err := NewHost(name, filepath.Join(t.TempDir(), name))
	if err != nil {
		t.Fatal(err)
	}
	// Close flushes the store before the directory is removed.
	t.Cleanup(func() { h.Close() })
	return h
}

// retryAtOnce makes h's retries skip their backoff.
func retryAtOnce(h *Host) {
	h.retryAfter = func(time.Duration) <-chan time.Time {
		c := make(chan time.Time, 1)
		c <- time.Now()
		return c
	}
}

func listen(t *testing.T, h *Host) string {
	t.Helper()
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return addr
}

func newGuest(t *testing.T, name string, pages int) *vm.VM {
	t.Helper()
	v, err := vm.New(vm.Config{Name: name, MemBytes: int64(pages) * vm.PageSize, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewHostValidation(t *testing.T) {
	if _, err := NewHost("", t.TempDir()); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewHost("a", ""); err == nil {
		t.Error("empty store dir accepted")
	}
}

func TestHostVMRegistry(t *testing.T) {
	h := newHost(t, "alpha")
	v := newGuest(t, "vm0", 8)
	h.AddVM(v)
	if got, ok := h.VM("vm0"); !ok || got != v {
		t.Error("VM lookup failed")
	}
	if _, ok := h.VM("other"); ok {
		t.Error("phantom VM found")
	}
	if names := h.VMNames(); len(names) != 1 || names[0] != "vm0" {
		t.Errorf("VMNames = %v", names)
	}
}

func TestMigrateOverTCP(t *testing.T) {
	src := newHost(t, "alpha")
	dst := newHost(t, "beta")
	addr := listen(t, dst)

	v := newGuest(t, "vm0", 64)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	want := v.Fingerprint64()
	src.AddVM(v)

	arrived := make(chan core.DestResult, 1)
	dst.OnArrival = func(_ *vm.VM, res core.DestResult) { arrived <- res }

	m, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{Recycle: true, KeepCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("destination never registered the VM")
	}

	// The VM left the source and landed at the destination with identical
	// memory.
	if _, ok := src.VM("vm0"); ok {
		t.Error("VM still resident at source")
	}
	landed, ok := dst.VM("vm0")
	if !ok {
		t.Fatal("VM not resident at destination")
	}
	got := landed.Fingerprint64()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("page %d differs after migration", i)
		}
	}
	// First migration: no checkpoint at the destination, everything full.
	if m.PagesSum != 0 {
		t.Errorf("first migration recycled %d pages", m.PagesSum)
	}
	// The source kept a checkpoint.
	if !src.Store().Has("vm0") {
		t.Error("source did not checkpoint the departed VM")
	}
}

func TestPingPongOverTCP(t *testing.T) {
	alpha := newHost(t, "alpha")
	beta := newHost(t, "beta")
	// The arrival image is the checkpoint a return leg names.
	alpha.SaveArrivals, beta.SaveArrivals = true, true
	addrA := listen(t, alpha)
	addrB := listen(t, beta)

	v := newGuest(t, "vm0", 64)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	alpha.AddVM(v)

	wait := func(h *Host) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, ok := h.VM("vm0"); ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("VM never arrived")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Leg 1: alpha → beta (full, alpha checkpoints).
	m1, err := alpha.MigrateTo(context.Background(), addrB, "vm0", MigrateOptions{Recycle: true, KeepCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	wait(beta)

	// Touch some pages at beta, then send it home: beta's arrival image is
	// alpha's departure image, so the hello names it and nothing is announced.
	vb, _ := beta.VM("vm0")
	vb.TouchRandomPages(5)
	m2, err := beta.MigrateTo(context.Background(), addrA, "vm0", MigrateOptions{Recycle: true, KeepCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	wait(alpha)

	if m2.AnnounceBytes != 0 {
		t.Errorf("ping-pong leg received a %d-byte announcement", m2.AnnounceBytes)
	}
	if m2.PagesKept == 0 {
		t.Error("return leg left nothing to the named checkpoint")
	}
	if m2.BytesSent >= m1.BytesSent {
		t.Errorf("return leg traffic %d not below first leg %d", m2.BytesSent, m1.BytesSent)
	}

	// Leg 3: alpha → beta again, by name again: alpha saved what arrived,
	// beta what left.
	m3, err := alpha.MigrateTo(context.Background(), addrB, "vm0", MigrateOptions{Recycle: true, KeepCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	wait(beta)
	if m3.PagesKept == 0 {
		t.Error("third leg left nothing to the named checkpoint at beta")
	}
	if m3.AnnounceBytes != 0 {
		t.Errorf("third leg received a %d-byte announcement", m3.AnnounceBytes)
	}
}

func TestMigrateNoSuchVM(t *testing.T) {
	src := newHost(t, "alpha")
	dst := newHost(t, "beta")
	addr := listen(t, dst)
	_, err := src.MigrateTo(context.Background(), addr, "ghost", MigrateOptions{})
	if !errors.Is(err, ErrNoSuchVM) {
		t.Errorf("err = %v, want ErrNoSuchVM", err)
	}
}

func TestMigrateRejectedWhenResident(t *testing.T) {
	src := newHost(t, "alpha")
	dst := newHost(t, "beta")
	addr := listen(t, dst)
	dst.AddVM(newGuest(t, "vm0", 8)) // name collision at destination
	v := newGuest(t, "vm0", 8)
	src.AddVM(v)
	_, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{})
	if !errors.Is(err, core.ErrRejected) {
		t.Errorf("err = %v, want ErrRejected", err)
	}
	// Failed migration must not remove the VM from the source.
	if _, ok := src.VM("vm0"); !ok {
		t.Error("VM lost after rejected migration")
	}
}

func TestMigrateDialFailure(t *testing.T) {
	src := newHost(t, "alpha")
	src.AddVM(newGuest(t, "vm0", 8))
	if _, err := src.MigrateTo(context.Background(), "127.0.0.1:1", "vm0", MigrateOptions{}); err == nil {
		t.Error("dial to dead port succeeded")
	}
}

func TestVDISchedulePaper(t *testing.T) {
	sched := PaperVDISchedule()
	if len(sched) != 26 {
		t.Fatalf("schedule has %d migrations, paper has 26", len(sched))
	}
	weekdays := map[time.Weekday]bool{}
	for i, m := range sched {
		wd := m.At.Weekday()
		if wd == time.Saturday || wd == time.Sunday {
			t.Errorf("migration %d on %v", i, wd)
		}
		weekdays[wd] = true
		if i%2 == 0 {
			if m.Direction != ToWorkstation || m.At.Hour() != 9 {
				t.Errorf("migration %d = %+v, want 9 am to workstation", i, m)
			}
		} else {
			if m.Direction != ToServer || m.At.Hour() != 17 {
				t.Errorf("migration %d = %+v, want 5 pm to server", i, m)
			}
		}
	}
	if len(weekdays) != 5 {
		t.Errorf("migrations cover %d weekdays, want 5", len(weekdays))
	}
	// Chronological order.
	for i := 1; i < len(sched); i++ {
		if !sched[i].At.After(sched[i-1].At) {
			t.Error("schedule not sorted")
		}
	}
}

func TestVDIScheduleValidation(t *testing.T) {
	now := time.Now()
	if _, err := VDISchedule(now, now.Add(-time.Hour), 9, 17); err == nil {
		t.Error("reversed range accepted")
	}
	if _, err := VDISchedule(now, now, 17, 9); err == nil {
		t.Error("reversed hours accepted")
	}
}

func TestVDIScheduleWeekendOnly(t *testing.T) {
	// A Saturday–Sunday range has no migrations.
	sat := time.Date(2014, 11, 8, 0, 0, 0, 0, time.UTC)
	sun := time.Date(2014, 11, 9, 23, 0, 0, 0, time.UTC)
	sched, err := VDISchedule(sat, sun, 9, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 0 {
		t.Errorf("weekend schedule has %d migrations", len(sched))
	}
}

func TestDirectionString(t *testing.T) {
	if ToWorkstation.String() != "server→workstation" || ToServer.String() != "workstation→server" {
		t.Error("direction labels wrong")
	}
	if Direction(9).String() != "direction(9)" {
		t.Error("invalid direction label wrong")
	}
}

// TestHostsWriteNoIndexFiles: the page manifest is the fingerprint index, so
// neither a departure checkpoint nor an arrival save leaves a separate index
// file next to it.
func TestHostsWriteNoIndexFiles(t *testing.T) {
	alpha := newHost(t, "alpha")
	beta := newHost(t, "beta")
	beta.SaveArrivals = true
	addrB := listen(t, beta)

	v := newGuest(t, "vm0", 32)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	alpha.AddVM(v)
	if _, err := alpha.MigrateTo(context.Background(), addrB, "vm0", MigrateOptions{
		Recycle: true, KeepCheckpoint: true,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := beta.VM("vm0"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("VM never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	for _, h := range []*Host{alpha, beta} {
		if !h.Store().Has("vm0") {
			t.Fatalf("host %s kept no checkpoint", h.Name())
		}
		idx, err := filepath.Glob(filepath.Join(h.Store().Dir(), "*.idx"))
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) != 0 {
			t.Errorf("host %s wrote index files: %v", h.Name(), idx)
		}
	}
}

// TestCloseMakesCheckpointsDurable: a leg's two checkpoints — the source's
// departure image and the destination's arrival image — are committed as soon
// as they are visible and made durable by the stores' flushes, behind the
// migration. Close flushes, so stores reopened over both directories serve
// both entries complete, and a scrub of either finds nothing to report.
func TestCloseMakesCheckpointsDurable(t *testing.T) {
	src := newHost(t, "alpha")
	dst := newHost(t, "beta")
	dst.SaveArrivals = true
	addr := listen(t, dst)
	v := newGuest(t, "vm0", 256)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	want := v.Fingerprint64()
	src.AddVM(v)
	if _, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{Recycle: true, KeepCheckpoint: true}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, ok := dst.VM("vm0"); return ok }, "guest never registered at the destination")
	for _, h := range []*Host{src, dst} {
		if err := h.Close(); err != nil {
			t.Fatalf("close %s: %v", h.Name(), err)
		}
	}
	for _, h := range []*Host{src, dst} {
		st, err := checkpoint.NewStore(h.Store().Dir())
		if err != nil {
			t.Fatal(err)
		}
		if state, ok := st.State("vm0"); !ok || state != checkpoint.EntryComplete {
			t.Fatalf("%s: reopened entry is %q (present=%v), want complete", h.Name(), state, ok)
		}
		got := newGuest(t, "vm0", 256)
		cp, err := st.Restore("vm0", checkpoint.ObjectAlgorithm, got)
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		cp.Close()
		fingerprintEqual(t, want, got)
		rep, err := st.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Quarantined)+len(rep.Dropped)+len(rep.TempFiles)+len(rep.Orphans) != 0 {
			t.Errorf("%s: scrub after a clean close found %+v", h.Name(), rep)
		}
	}
}
