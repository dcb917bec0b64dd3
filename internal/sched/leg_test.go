package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vecycle/internal/checkpoint"
	"vecycle/internal/core"
	"vecycle/internal/disk"
	"vecycle/internal/faultfs"
	"vecycle/internal/obs"
	"vecycle/internal/vm"
)

// The leg driver without sockets: every leg of a MigrateTo — an attached
// disk's backing region first, then the RAM — is dialed, retried, offered by
// name and checkpointed the same way.

// pipeDialer is a DialFunc that needs no listener: each dial hands the source
// one end of a net.Pipe and runs the addressed host's handleIncoming on the
// other, as its accept loop would. Dials named in fail fail outright; a dial
// named in cut gets a connection that resets after that many bytes written.
// Each dial first waits for the handlers of the ones before it, so an attempt
// sees what the previous one left at the destination.
type pipeDialer struct {
	hosts map[string]*Host // by the address MigrateTo is given
	fail  map[int64]bool
	cut   map[int64]int64
	dials atomic.Int64
	wg    sync.WaitGroup
}

// newPipeDialer makes src dial hosts by name. Its handlers are waited for
// before the hosts close.
func newPipeDialer(t *testing.T, src *Host, hosts ...*Host) *pipeDialer {
	p := &pipeDialer{hosts: map[string]*Host{}, fail: map[int64]bool{}, cut: map[int64]int64{}}
	for _, h := range append(hosts, src) {
		p.hosts[h.Name()] = h
		t.Cleanup(func() { h.Close() })
	}
	t.Cleanup(p.wg.Wait)
	src.DialFunc = p.dial
	return p
}

func (p *pipeDialer) dial(_ context.Context, addr string) (io.ReadWriteCloser, error) {
	n := p.dials.Add(1)
	p.wg.Wait()
	if p.fail[n] {
		return nil, fmt.Errorf("pipe dial %d to %s: injected failure", n, addr)
	}
	dst, ok := p.hosts[addr]
	if !ok {
		return nil, fmt.Errorf("pipe dial %d: no host %q", n, addr)
	}
	src, peer := net.Pipe()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer peer.Close()
		_ = dst.handleIncoming(dst.lifeCtx, core.NewDeadlineConn(peer, dst.idle()), "pipe")
	}()
	if b, ok := p.cut[n]; ok {
		return core.NewFaultConn(src, core.FaultConfig{ResetAfterBytes: b}), nil
	}
	return src, nil
}

// diskGuest places VM "db-1" with a 4-block disk on h and returns both.
func diskGuest(t *testing.T, h *Host) (*vm.VM, *disk.Disk) {
	t.Helper()
	guest := newGuest(t, "db-1", 32)
	if err := guest.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dev, err := disk.New("db-1", 4*disk.BlockSize, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.MkFS(0.75, 6); err != nil {
		t.Fatal(err)
	}
	h.AddVM(guest)
	h.AttachDisk(dev)
	return guest, dev
}

// landedIntact checks that h holds db-1 and its disk with the content want
// and wantDisk had.
func landedIntact(t *testing.T, h *Host, want *vm.VM, wantDisk *disk.Disk) {
	t.Helper()
	v, okV := h.VM("db-1")
	d, okD := h.Disk("db-1")
	if !okV || !okD {
		t.Fatalf("%s holds vm=%v disk=%v, want both", h.Name(), okV, okD)
	}
	if !want.MemEqual(v) {
		t.Error("memory differs after the migration")
	}
	if !wantDisk.ContentEqual(d) {
		t.Error("disk differs after the migration")
	}
}

// lastSourceRecord returns h's most recent completed source-side record of
// the named region.
func lastSourceRecord(t *testing.T, h *Host, name string) obs.Migration {
	t.Helper()
	recent := h.Traces().Recent()
	for i := len(recent) - 1; i >= 0; i-- {
		if r := recent[i]; r.Role == "source" && r.VM == name {
			return r
		}
	}
	t.Fatalf("%s has no source record of %s", h.Name(), name)
	return obs.Migration{}
}

// TestLegOrphanDiskReplaced: a RAM leg that fails after the disk leg leaves
// the disk at the destination without its VM. That orphan does not count as
// resident, so a retried MigrateTo replaces it and lands both.
func TestLegOrphanDiskReplaced(t *testing.T) {
	alpha, beta := newHost(t, "alpha"), newHost(t, "beta")
	guest, dev := diskGuest(t, alpha)
	p := newPipeDialer(t, alpha, beta)
	p.fail[2] = true // the first MigrateTo's RAM leg

	opts := MigrateOptions{Recycle: true, KeepCheckpoint: true}
	if _, err := alpha.MigrateTo(context.Background(), "beta", "db-1", opts); err == nil {
		t.Fatal("MigrateTo succeeded although its RAM leg could not dial")
	} else if strings.Contains(err.Error(), "disk migration") {
		t.Fatalf("the disk leg failed: %v", err)
	}
	p.wg.Wait()
	if _, ok := beta.Disk("db-1"); !ok {
		t.Fatal("the disk leg left nothing at the destination; the test cannot see an orphan")
	}
	if _, ok := beta.VM("db-1"); ok {
		t.Fatal("the VM arrived although its leg failed")
	}
	if _, ok := alpha.VM("db-1"); !ok {
		t.Fatal("the source dropped the VM after a failed migration")
	}
	if _, ok := alpha.Disk("db-1"); !ok {
		t.Fatal("the source dropped the disk after a failed migration")
	}

	if _, err := alpha.MigrateTo(context.Background(), "beta", "db-1", opts); err != nil {
		t.Fatalf("retried MigrateTo: %v", err)
	}
	p.wg.Wait()
	landedIntact(t, beta, guest, dev)
	if _, ok := alpha.VM("db-1"); ok {
		t.Error("VM still resident at the source")
	}
	if _, ok := alpha.Disk("db-1"); ok {
		t.Error("disk still attached at the source")
	}
}

// TestLegDiskRetried: a cut disk leg is retried like a RAM leg and
// converges. OnAttempt sees the disk's two attempts, then the RAM's one.
func TestLegDiskRetried(t *testing.T) {
	alpha, beta := newHost(t, "alpha"), newHost(t, "beta")
	guest, dev := diskGuest(t, alpha)
	p := newPipeDialer(t, alpha, beta)
	p.cut[1] = 100_000 // inside the disk's round one

	type attempt struct {
		no  int
		err error
	}
	var attempts []attempt
	retryAtOnce(alpha)
	_, err := alpha.MigrateTo(context.Background(), "beta", "db-1", MigrateOptions{
		Recycle: true, KeepCheckpoint: true,
		Retry:     RetryPolicy{Attempts: 2},
		OnAttempt: func(no int, _ core.Metrics, err error) { attempts = append(attempts, attempt{no, err}) },
	})
	if err != nil {
		t.Fatalf("MigrateTo did not converge: %v", err)
	}
	p.wg.Wait()
	landedIntact(t, beta, guest, dev)
	if len(attempts) != 3 || attempts[0].no != 1 || !errors.Is(attempts[0].err, core.ErrInjectedReset) ||
		attempts[1].no != 2 || attempts[1].err != nil || attempts[2].no != 1 || attempts[2].err != nil {
		t.Errorf("attempts %+v, want the disk's cut one, its clean retry, then the RAM's one", attempts)
	}
	rec := lastSourceRecord(t, alpha, "db-1#disk")
	retried := false
	for _, e := range rec.Events {
		retried = retried || e.Kind == "retry"
	}
	if rec.Err != "" || !retried {
		t.Errorf("disk record: err=%q retried=%v, want a retry and success", rec.Err, retried)
	}
	if !alpha.Store().Has("db-1#disk") {
		t.Error("the disk leg kept no departure image")
	}
}

// TestLegDiskByName: with arrival images on both hosts, a disk's return leg is
// matched by name like a RAM leg: no announcement, and round one leaves out
// every block still equal to the named checkpoint.
func TestLegDiskByName(t *testing.T) {
	alpha, beta := newHost(t, "alpha"), newHost(t, "beta")
	alpha.SaveArrivals, beta.SaveArrivals = true, true
	guest, dev := diskGuest(t, alpha)
	pa := newPipeDialer(t, alpha, beta)
	pb := newPipeDialer(t, beta, alpha)

	opts := MigrateOptions{Recycle: true, KeepCheckpoint: true}
	if _, err := alpha.MigrateTo(context.Background(), "beta", "db-1", opts); err != nil {
		t.Fatal(err)
	}
	pa.wg.Wait()
	landedIntact(t, beta, guest, dev)
	db, _ := beta.Disk("db-1")
	if err := db.AppendLog(1, disk.BlockSize/2, 9); err != nil {
		t.Fatal(err)
	}
	vb, _ := beta.VM("db-1")

	var diskLeg *core.Metrics
	opts.OnAttempt = func(_ int, m core.Metrics, _ error) {
		if diskLeg == nil {
			diskLeg = &m
		}
	}
	if _, err := beta.MigrateTo(context.Background(), "alpha", "db-1", opts); err != nil {
		t.Fatal(err)
	}
	pb.wg.Wait()
	landedIntact(t, alpha, vb, db)
	rec := lastSourceRecord(t, beta, "db-1#disk")
	var hello string
	for _, e := range rec.Events {
		if e.Kind == core.EventHello {
			hello = e.Detail
		}
	}
	if !strings.Contains(hello, "manifest=match") {
		t.Errorf("disk return leg's hello %q, want manifest=match", hello)
	}
	if diskLeg == nil || diskLeg.AnnounceBytes != 0 || diskLeg.PagesKept == 0 {
		t.Errorf("disk return leg %+v, want no announcement and kept pages", diskLeg)
	}
}

// TestLegRejectedNotRetried: a destination that refuses the hello is asked
// once. The retry policy spends no attempt on a rejection: OnAttempt sees one,
// and MigrateTo returns core.ErrRejected.
func TestLegRejectedNotRetried(t *testing.T) {
	alpha, beta := newHost(t, "alpha"), newHost(t, "beta")
	alpha.AddVM(newGuest(t, "vm0", 16))
	beta.AddVM(newGuest(t, "vm0", 16)) // already resident: the arrival is refused
	p := newPipeDialer(t, alpha, beta)

	var attempts []error
	_, err := alpha.MigrateTo(context.Background(), "beta", "vm0", MigrateOptions{
		Recycle:   true,
		Retry:     RetryPolicy{Attempts: 5},
		OnAttempt: func(_ int, _ core.Metrics, err error) { attempts = append(attempts, err) },
	})
	p.wg.Wait()
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("MigrateTo = %v, want ErrRejected", err)
	}
	if len(attempts) != 1 || !errors.Is(attempts[0], core.ErrRejected) {
		t.Errorf("attempts %v, want the one rejected", attempts)
	}
	if n := p.dials.Load(); n != 1 {
		t.Errorf("dialed %d times, want 1", n)
	}
	if _, ok := alpha.VM("vm0"); !ok {
		t.Error("the source dropped the VM after a rejection")
	}
}

// TestLegSaveStreamBroken: on a return leg the source's departure image
// streams under round one; a write that fails there breaks the stream. The
// migration still succeeds on its one attempt, the keep-checkpoint rung is
// taken once, and the commit retried through a fresh stream leaves an entry of
// exactly the departed guest.
func TestLegSaveStreamBroken(t *testing.T) {
	const pages, rewritten = 512, 192
	inj := faultfs.NewInjector()
	alpha, beta := newFaultHost(t, "alpha", inj), newHost(t, "beta")
	guest := newGuest(t, "vm0", pages)
	if err := guest.FillRandom(1); err != nil {
		t.Fatal(err)
	}
	alpha.AddVM(guest)
	pa := newPipeDialer(t, alpha, beta)
	pb := newPipeDialer(t, beta, alpha)
	opts := MigrateOptions{Recycle: true, KeepCheckpoint: true}
	for _, hop := range []struct {
		from *Host
		p    *pipeDialer
		to   string
	}{{alpha, pa, "beta"}, {beta, pb, "alpha"}} {
		if _, err := hop.from.MigrateTo(context.Background(), hop.to, "vm0", opts); err != nil {
			t.Fatal(err)
		}
		hop.p.wg.Wait()
	}
	back, ok := alpha.VM("vm0")
	if !ok || !alpha.Store().Has("vm0") {
		t.Fatal("the guest is not back at alpha with alpha's departure image")
	}
	// Pages alpha's image lacks, more than the segment writer buffers: round one
	// sends them and the stream writes them under it.
	buf := make([]byte, vm.PageSize)
	for i := 0; i < rewritten; i++ {
		rand.New(rand.NewSource(int64(1000 + i))).Read(buf) // not the guest's seed 7
		back.WritePage(2*i, buf)
	}

	inj.Arm(faultfs.Fault{Op: faultfs.OpWrite, Path: ".seg.tmp", Err: faultfs.ErrEIO})
	attempts := 0
	opts.OnAttempt = func(int, core.Metrics, error) { attempts++ }
	if _, err := alpha.MigrateTo(context.Background(), "beta", "vm0", opts); err != nil {
		t.Fatalf("MigrateTo failed on a broken save stream: %v", err)
	}
	pa.wg.Wait()
	if attempts != 1 {
		t.Errorf("ran %d attempts, want 1", attempts)
	}
	if len(inj.Shots()) != 1 {
		t.Fatalf("%d faults fired, want the one armed", len(inj.Shots()))
	}
	metrics := scrape(t, alpha)
	if want := `vecycle_degraded_total{host="alpha",stage="keep-checkpoint",fault="eio"} 1`; !strings.Contains(metrics, want) {
		t.Errorf("want %s; metrics:\n%s", want, metrics)
	}
	if n := strings.Count(metrics, "vecycle_degraded_total{"); n != 1 {
		t.Errorf("%d degradations counted, want 1:\n%s", n, metrics)
	}
	landed, ok := beta.VM("vm0")
	if !ok {
		t.Fatal("the guest did not arrive at beta")
	}
	if !back.MemEqual(landed) {
		t.Error("memory differs after the migration")
	}
	if _, keys, ok := alpha.Store().Mirror("vm0"); !ok || !slices.Equal(keys, pageKeys(landed)) {
		t.Error("the departure image committed through the fresh stream is not the departed guest")
	}
	if err := alpha.Store().Verify("vm0"); err != nil {
		t.Error(err)
	}
	if streamed, caughtUp := savedCounts(t, alpha, "source", 2); streamed != 0 || caughtUp != rewritten {
		t.Errorf("saved streamed=%d caught_up=%d, want 0 and %d", streamed, caughtUp, rewritten)
	}
}

// TestLegSalvageCollectsOnENOSPC: a leg cut after wire pages landed leaves the
// destination a salvage to persist, and its disk is full for the salvage's
// first write. The salvage runs the host's one save ladder: a GC pass reclaims
// the dead segment in the pool, the retried commit leaves the partial entry,
// and no salvage rung is counted as degraded.
func TestLegSalvageCollectsOnENOSPC(t *testing.T) {
	inj := faultfs.NewInjector()
	alpha, beta := newHost(t, "alpha"), newFaultHost(t, "beta", inj)
	// A dead segment in beta's pool: a throwaway VM saved, then removed
	// without a collection.
	junk := newGuest(t, "junk", 64)
	if err := junk.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	if err := beta.Store().Save(junk); err != nil {
		t.Fatal(err)
	}
	if err := beta.Store().Remove("junk"); err != nil {
		t.Fatal(err)
	}
	guest := newGuest(t, "vm0", 1024)
	if err := guest.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	alpha.AddVM(guest)
	p := newPipeDialer(t, alpha, beta)
	p.cut[1] = 1_200_000 // past round one's first range frame

	inj.Arm(faultfs.Fault{Op: faultfs.OpWrite, Path: ".seg", Err: faultfs.ErrENOSPC, Times: 1})
	if _, err := alpha.MigrateTo(context.Background(), "beta", "vm0", MigrateOptions{Recycle: true}); err == nil {
		t.Fatal("the cut leg succeeded")
	}
	p.wg.Wait()
	if n := len(inj.Shots()); n != 1 {
		t.Fatalf("%d faults fired, want the one armed", n)
	}
	if state, ok := beta.Store().State("vm0"); !ok || state != checkpoint.EntryPartial {
		t.Errorf("beta's entry is %q (present=%v), want the salvage partial", state, ok)
	}
	if err := beta.Store().Verify("vm0"); err != nil {
		t.Error(err)
	}
	metrics := scrape(t, beta)
	for _, want := range []string{
		`vecycle_store_gc_total{host="beta",outcome="reclaimed"} 1`,
		`vecycle_salvage_total{host="beta",outcome="written"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("want %s; metrics:\n%s", want, metrics)
		}
	}
	for _, unwanted := range []string{`vecycle_store_gc_total{host="beta",outcome="clean"}`, "vecycle_degraded_total{"} {
		if strings.Contains(metrics, unwanted) {
			t.Errorf("unwanted %s; metrics:\n%s", unwanted, metrics)
		}
	}
}

// TestLegUnionSkipTraced: a first visit to a host whose one resident entry
// cannot be opened — every segment open fails with EIO — leaves that entry out
// of the union and carries on over the wire. The skip is a rung of the ladder:
// counted, and traced on the arrival's record as a degraded union-read:eio.
func TestLegUnionSkipTraced(t *testing.T) {
	inj := faultfs.NewInjector()
	alpha, beta := newHost(t, "alpha"), newFaultHost(t, "beta", inj)
	other := newGuest(t, "other", 64)
	if err := other.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	if err := beta.Store().Save(other); err != nil {
		t.Fatal(err)
	}
	guest := newGuest(t, "vm0", 64)
	if err := guest.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	alpha.AddVM(guest)
	p := newPipeDialer(t, alpha, beta)

	inj.Arm(faultfs.Fault{Op: faultfs.OpOpen, Path: ".seg", Err: faultfs.ErrEIO, Times: -1})
	if _, err := alpha.MigrateTo(context.Background(), "beta", "vm0", MigrateOptions{Recycle: true}); err != nil {
		t.Fatalf("MigrateTo failed on an unreadable union entry: %v", err)
	}
	p.wg.Wait()
	if landed, ok := beta.VM("vm0"); !ok || !guest.MemEqual(landed) {
		t.Fatal("the guest did not arrive intact")
	}
	var skips []string
	for _, r := range beta.Traces().Recent() {
		if r.Role != "dest" || r.VM != "vm0" {
			continue
		}
		for _, e := range r.Events {
			if e.Kind == core.EventDegraded {
				skips = append(skips, e.Detail)
			}
		}
	}
	if len(skips) != 1 || skips[0] != core.StageUnionRead+":eio" {
		t.Errorf("degraded events on the arrival's record %v, want one union-read:eio", skips)
	}
	if want := `vecycle_degraded_total{host="beta",stage="union-read",fault="eio"} 1`; !strings.Contains(scrape(t, beta), want) {
		t.Errorf("want %s", want)
	}
}
