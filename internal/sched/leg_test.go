package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vecycle/internal/core"
	"vecycle/internal/disk"
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
	_, err := alpha.MigrateTo(context.Background(), "beta", "db-1", MigrateOptions{
		Recycle: true, KeepCheckpoint: true,
		Retry:     RetryPolicy{Attempts: 2, Backoff: time.Millisecond},
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
