// Package sched provides the deployment layer above the migration engine:
// hosts that accept incoming migrations over TCP, keep per-VM checkpoints
// in a local store, offer that store's entry by name on the way back so a
// peer holding the same one announces nothing (the ping-pong optimization,
// §3.2), and the migration schedules of the
// paper's use cases (§2.2): the 9-to-5 VDI scenario evaluated in §4.6 and
// Figure 8, dynamic consolidation, and hot-spot balancing.
//
// A Host stands in for the paper's migration manager on each physical
// machine (the QEMU-external daemon of §3.1; see DESIGN.md §2 for what the
// reproduction substitutes for the hypervisor). It also carries the
// transport hardening (idle deadlines, retry/backoff, delta fallback) and
// the observability seam: every migration, either role, is folded into an
// internal/obs registry and trace log, optionally served over HTTP by
// ListenOps (docs/OBSERVABILITY.md).
package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/core"
	"vecycle/internal/disk"
	"vecycle/internal/faultfs"
	"vecycle/internal/obs"
	"vecycle/internal/vm"
)

// dialTimeout bounds connection establishment to a peer host.
const dialTimeout = 10 * time.Second

// DefaultIdleTimeout is the per-I/O idle budget applied to migration
// connections when Host.IdleTimeout is zero. Any single read or write that
// makes no progress for this long fails the migration instead of wedging
// the handler (and with it Host.Close) forever.
const DefaultIdleTimeout = 2 * time.Minute

// ErrNoSuchVM is returned when a named VM is not resident on the host.
var ErrNoSuchVM = errors.New("sched: no such VM on this host")

// Host is one physical machine: resident VMs, a checkpoint store, and an
// optional TCP listener for incoming migrations.
type Host struct {
	name  string
	store *checkpoint.Store

	// lifeCtx is cancelled by Close, aborting every in-flight incoming
	// handler so Close returns promptly even with a wedged peer.
	lifeCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	vms      map[string]*vm.VM
	disks    map[string]*disk.Disk // VM name → attached block device
	pending  map[string]bool       // arrivals in flight, reserved until registered
	arrivals int
	ln       net.Listener
	opsSrv   *obs.Server // optional ops HTTP listener (ListenOps)
	wg       sync.WaitGroup

	// obs folds every migration into a metrics registry and trace log
	// (see obs.go); always non-nil after NewHost.
	obs *hostObs

	// OnArrival, when non-nil, is invoked after a VM lands on this host.
	OnArrival func(v *vm.VM, res core.DestResult)

	// OnError, when non-nil, observes errors from incoming-migration
	// handlers (which are otherwise only reported to the peer in-protocol)
	// and retry/backoff decisions on the outgoing side.
	OnError func(error)

	// SaveArrivals checkpoints every VM right after it arrives. The arrival
	// image is byte-identical to the checkpoint the sending peer wrote when
	// the VM departed, which makes it a sound delta base for the return
	// migration (see MigrateOptions.UseDelta). Costs one image write per
	// arrival.
	SaveArrivals bool

	// IdleTimeout bounds each individual read and write on migration
	// connections, both accept- and dial-side. Zero selects
	// DefaultIdleTimeout; negative disables the per-I/O deadline.
	IdleTimeout time.Duration

	// NoSalvage disables salvage checkpoints: interrupted incoming
	// migrations discard their partially-installed pages instead of
	// persisting them for the next attempt to resume from
	// (core.DestOptions.NoSalvage).
	NoSalvage bool

	// DialFunc, when non-nil, replaces outbound connection establishment —
	// the seam the fault-injection tests use to interpose a
	// core.FaultConn. nil dials TCP with dialTimeout.
	DialFunc func(ctx context.Context, addr string) (io.ReadWriteCloser, error)

	// TCPDelay re-enables Nagle's algorithm on migration sockets. By default
	// the host calls SetNoDelay(true): the engine already batches frames into
	// megabyte writes, so coalescing in the kernel only adds latency to the
	// small control turns (hello, round acks) the protocol blocks on.
	TCPDelay bool

	// TCPReadBuffer / TCPWriteBuffer, when positive, set SO_RCVBUF /
	// SO_SNDBUF on migration sockets (both accept- and dial-side). Zero
	// keeps the OS defaults (with auto-tuning, usually right on a LAN);
	// sizing them to the bandwidth-delay product helps on high-RTT paths.
	TCPReadBuffer  int
	TCPWriteBuffer int
}

// tuneConn applies the host's socket knobs to a migration connection. It is
// a no-op on anything but a *net.TCPConn (tests dial net.Pipe and fault
// wrappers through DialFunc).
func (h *Host) tuneConn(conn interface{}) {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return
	}
	_ = tc.SetNoDelay(!h.TCPDelay)
	if h.TCPReadBuffer > 0 {
		_ = tc.SetReadBuffer(h.TCPReadBuffer)
	}
	if h.TCPWriteBuffer > 0 {
		_ = tc.SetWriteBuffer(h.TCPWriteBuffer)
	}
}

// NewHost creates a host whose checkpoint store lives at storeDir.
func NewHost(name, storeDir string) (*Host, error) {
	store, err := checkpoint.NewStore(storeDir)
	if err != nil {
		return nil, err
	}
	return NewHostWithStore(name, store)
}

// NewHostWithStore creates a host around an already-open checkpoint store —
// the seam the storage chaos tests use to run a host against a store built
// on an injected filesystem (checkpoint.NewStoreFS + faultfs).
func NewHostWithStore(name string, store *checkpoint.Store) (*Host, error) {
	if name == "" {
		return nil, fmt.Errorf("sched: empty host name")
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &Host{
		name:    name,
		store:   store,
		lifeCtx: ctx,
		cancel:  cancel,
		vms:     make(map[string]*vm.VM),
		disks:   make(map[string]*disk.Disk),
		pending: make(map[string]bool),
	}
	h.obs = newHostObs(h, obs.NewRegistry(), obs.NewTraceLog(0))
	return h, nil
}

// Name reports the host name.
func (h *Host) Name() string { return h.name }

// Store exposes the host's checkpoint store.
func (h *Host) Store() *checkpoint.Store { return h.store }

// AddVM places a VM on this host (initial placement, not migration).
func (h *Host) AddVM(v *vm.VM) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.vms[v.Name()] = v
}

// AttachDisk associates a block device with a resident VM. Migrations of
// the VM move the disk first (unshared-storage mode), as QEMU's block
// migration does.
func (h *Host) AttachDisk(d *disk.Disk) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.disks[d.VMName()] = d
}

// Disk looks up the device attached to a VM.
func (h *Host) Disk(vmName string) (*disk.Disk, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.disks[vmName]
	return d, ok
}

// VM looks up a resident VM.
func (h *Host) VM(name string) (*vm.VM, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v, ok := h.vms[name]
	return v, ok
}

// VMNames lists resident VMs.
func (h *Host) VMNames() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	names := make([]string, 0, len(h.vms))
	for n := range h.vms {
		names = append(names, n)
	}
	return names
}

// idle resolves the host's per-I/O idle budget.
func (h *Host) idle() time.Duration {
	return resolveIdle(h.IdleTimeout)
}

func resolveIdle(d time.Duration) time.Duration {
	switch {
	case d < 0:
		return 0 // disabled
	case d == 0:
		return DefaultIdleTimeout
	default:
		return d
	}
}

// dial establishes an outbound migration connection.
func (h *Host) dial(ctx context.Context, addr string) (io.ReadWriteCloser, error) {
	if h.DialFunc != nil {
		return h.DialFunc(ctx, addr)
	}
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sched: dial %s: %w", addr, err)
	}
	h.tuneConn(conn)
	return conn, nil
}

// Listen starts accepting incoming migrations on addr (e.g.
// "127.0.0.1:0"). The returned address carries the bound port.
func (h *Host) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("sched: listen: %w", err)
	}
	h.mu.Lock()
	h.ln = ln
	h.mu.Unlock()
	h.wg.Add(1)
	go h.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener, aborts in-flight incoming migrations, and waits
// for their handlers. A handler blocked on a stalled peer is unblocked by
// the cancellation, so Close returns promptly rather than waiting out the
// peer.
func (h *Host) Close() error {
	h.cancel()
	h.mu.Lock()
	ln := h.ln
	h.ln = nil
	opsSrv := h.opsSrv
	h.opsSrv = nil
	h.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	if opsSrv != nil {
		opsSrv.Close()
	}
	h.wg.Wait()
	return err
}

func (h *Host) acceptLoop(ln net.Listener) {
	defer h.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			defer conn.Close()
			h.tuneConn(conn)
			// Per-I/O deadlines so a hung peer cannot wedge the handler;
			// the host context aborts the connection on Close.
			dc := core.NewDeadlineConn(conn, h.idle())
			// Errors are also reported to the peer in-protocol.
			if err := h.handleIncoming(h.lifeCtx, dc, conn.RemoteAddr().String()); err != nil && h.OnError != nil {
				h.OnError(err)
			}
		}()
	}
}

// reserveArrival claims the VM name for one in-flight incoming migration.
// It reports false when the VM is already resident or already arriving —
// the duplicate-arrival race is decided here, under one lock acquisition.
func (h *Host) reserveArrival(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, resident := h.vms[name]
	if disk.IsDiskName(name) {
		base := name[:len(name)-len(disk.DiskSuffix)]
		if _, ok := h.disks[base]; ok {
			resident = true
		}
	}
	if resident || h.pending[name] {
		return false
	}
	h.pending[name] = true
	return true
}

func (h *Host) releaseArrival(name string) {
	h.mu.Lock()
	delete(h.pending, name)
	h.mu.Unlock()
}

// handleIncoming accepts one migration: it creates the destination VM from
// the session parameters, runs the merge, and registers the VM as resident.
func (h *Host) handleIncoming(ctx context.Context, conn io.ReadWriter, peer string) error {
	session, err := core.Accept(ctx, conn)
	if err != nil {
		return err
	}
	name := session.VMName()
	rec := h.obs.begin("dest", name, peer)
	if !h.reserveArrival(name) {
		rerr := fmt.Errorf("%w: VM %q already resident on %s", core.ErrRejected, name, h.name)
		h.obs.finish(rec, "dest", name, core.Metrics{}, rerr)
		return session.Reject(fmt.Sprintf("VM %q already resident on %s", name, h.name))
	}
	defer h.releaseArrival(name)
	if session.IsPostCopy() {
		return h.handlePostCopy(ctx, session, rec)
	}
	res, err := h.runIncoming(ctx, session, rec)
	h.obs.finish(rec, "dest", name, res.Metrics, err)
	return err
}

// runIncoming is the body of handleIncoming for the pre-copy path, split
// out so every return funnels through one obs.finish call.
func (h *Host) runIncoming(ctx context.Context, session *core.IncomingSession, rec *obs.Recorder) (core.DestResult, error) {
	name := session.VMName()
	// The seed only drives the guest's future workload randomness (its
	// memory is about to be overwritten by the migration), but it must
	// differ across hosts and across arrivals: a host resuming the same VM
	// with a repeated seed would "randomly" write identical content, which
	// then spuriously matches checkpoints.
	h.mu.Lock()
	h.arrivals++
	seed := int64(fnv64(fmt.Sprintf("%s/%s/%d", h.name, name, h.arrivals)))
	h.mu.Unlock()
	dst, err := vm.New(vm.Config{Name: name, MemBytes: session.MemBytes(), Seed: seed})
	if err != nil {
		return core.DestResult{}, session.Reject(err.Error())
	}
	// The arrival image is written as the pages land, when the merge
	// bootstraps from this host's own checkpoint; the commit after the ack
	// writes what is left. A failed merge commits it as its salvage image.
	var save *checkpoint.SaveStream
	if h.SaveArrivals {
		save = h.store.OpenSave(name)
		defer save.Abort()
	}
	res, err := session.Run(ctx, dst, core.DestOptions{
		Store:         h.store,
		TrackIncoming: true,
		NoSalvage:     h.NoSalvage,
		OnEvent:       h.obs.eventFunc(rec, "dest"),
		Save:          save,
	})
	if err != nil {
		return res, err
	}
	if res.ResumedFromPartial {
		// The resumed pages crossed the wire as checksums instead of full
		// pages; attribute the saving to the salvage image.
		h.obs.salvageAvoided.With(h.name).Add(float64(
			int64(res.Metrics.PagesReusedInPlace+res.Metrics.PagesReusedFromDisk) * vm.PageSize))
	}
	if !h.SaveArrivals {
		// The arrival succeeded, so any salvage image for this VM is now
		// stale. SaveArrivals overwrites it with a complete checkpoint below;
		// without it, drop the partial so later bootstraps don't use it.
		if state, ok := h.store.State(name); ok && state == checkpoint.EntryPartial {
			if rerr := h.store.Remove(name); rerr == nil {
				h.obs.salvage.With(h.name, "superseded").Inc()
				rec.Event(obs.Event{Kind: core.EventSalvage, Detail: "superseded"})
			}
		}
	}
	if h.SaveArrivals {
		// The merge left every page's digest in the guest's digest table and
		// snapshotted it (TrackIncoming is always on here), so the save hashes
		// nothing when the migration ran under the store's key algorithm. The
		// persist is best-effort: the VM has fully arrived, so a failed save
		// degrades (the next migration runs cold) instead of failing it.
		h.saveCheckpoint(core.StageSaveArrivals, rec, save, dst, res.Alg, res.PageSums, "arrival image")
	}
	if disk.IsDiskName(dst.Name()) {
		d, err := disk.FromBacking(dst)
		if err != nil {
			return res, err
		}
		h.mu.Lock()
		if _, dup := h.disks[d.VMName()]; dup {
			h.mu.Unlock()
			return res, fmt.Errorf("sched: disk for %q became resident on %s during migration; dropping duplicate arrival", d.VMName(), h.name)
		}
		h.disks[d.VMName()] = d
		h.mu.Unlock()
		return res, nil
	}
	if err := h.register(dst); err != nil {
		return res, err
	}
	if h.OnArrival != nil {
		h.OnArrival(dst, res)
	}
	return res, nil
}

// register makes an arrived VM resident, re-checking residency under the
// same lock acquisition as the insert: two racing arrivals of one VM must
// never silently overwrite each other, whichever registers second loses.
func (h *Host) register(dst *vm.VM) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.vms[dst.Name()]; dup {
		return fmt.Errorf("sched: VM %q became resident on %s during migration; dropping duplicate arrival", dst.Name(), h.name)
	}
	h.vms[dst.Name()] = dst
	return nil
}

// handlePostCopy completes an incoming post-copy migration.
func (h *Host) handlePostCopy(ctx context.Context, session *core.IncomingSession, rec *obs.Recorder) error {
	res, err := h.runPostCopy(ctx, session, rec)
	h.obs.finishPostCopy(rec, "dest", session.VMName(), res.Metrics, err)
	return err
}

func (h *Host) runPostCopy(ctx context.Context, session *core.IncomingSession, rec *obs.Recorder) (core.PostCopyDestResult, error) {
	h.mu.Lock()
	h.arrivals++
	seed := int64(fnv64(fmt.Sprintf("%s/%s/%d", h.name, session.VMName(), h.arrivals)))
	h.mu.Unlock()
	dst, err := vm.New(vm.Config{Name: session.VMName(), MemBytes: session.MemBytes(), Seed: seed})
	if err != nil {
		return core.PostCopyDestResult{}, session.Reject(err.Error())
	}
	res, err := session.RunPostCopy(ctx, dst, core.PostCopyDestOptions{
		Store:   h.store,
		OnEvent: h.obs.eventFunc(rec, "dest"),
	})
	if err != nil {
		return res, err
	}
	if h.SaveArrivals {
		h.saveCheckpoint(core.StageSaveArrivals, rec, nil, dst, checkpoint.ObjectAlgorithm, h.tableKeys(dst), "arrival image")
	}
	if err := h.register(dst); err != nil {
		return res, err
	}
	if h.OnArrival != nil {
		h.OnArrival(dst, core.DestResult{
			Metrics:        res.Metrics.Metrics,
			UsedCheckpoint: res.UsedCheckpoint,
		})
	}
	return res, nil
}

// PostCopyTo moves the named VM to the peer at addr using the post-copy
// protocol. The caller must have stopped the guest workload: post-copy
// transfers a frozen state, and the guest logically resumes at the
// destination the moment the manifest is resolved. Cancelling ctx aborts
// the transfer; per-I/O deadlines follow Host.IdleTimeout.
func (h *Host) PostCopyTo(ctx context.Context, addr, vmName string) (core.PostCopyMetrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	h.mu.Lock()
	v, ok := h.vms[vmName]
	h.mu.Unlock()
	if !ok {
		return core.PostCopyMetrics{}, fmt.Errorf("%w: %q", ErrNoSuchVM, vmName)
	}
	rec := h.obs.begin("source", vmName, addr)
	m, err := h.runPostCopyTo(ctx, addr, vmName, v, rec)
	h.obs.finishPostCopy(rec, "source", vmName, m, err)
	return m, err
}

func (h *Host) runPostCopyTo(ctx context.Context, addr, vmName string, v *vm.VM, rec *obs.Recorder) (core.PostCopyMetrics, error) {
	conn, err := h.dial(ctx, addr)
	if err != nil {
		return core.PostCopyMetrics{}, err
	}
	defer conn.Close()
	m, err := core.PostCopySource(ctx, core.NewDeadlineConn(conn, h.idle()), v, core.PostCopySourceOptions{
		OnEvent: h.obs.eventFunc(rec, "source"),
	})
	if err != nil {
		return m, err
	}
	// The guest already runs at the destination; the departure image is a
	// future optimization, not part of this transfer's success.
	h.saveCheckpoint(core.StageKeepCheckpoint, rec, nil, v, checkpoint.ObjectAlgorithm, h.tableKeys(v), "departure image")
	h.mu.Lock()
	delete(h.vms, vmName)
	h.mu.Unlock()
	return m, nil
}

// tableKeys returns a post-copy guest's page keys for its checkpoint save from
// the guest's digest table, hashing only the pages the table does not cover,
// and counts those as the save's keying work. A post-copy destination's table
// covers every page — the restore seeded it, and each fetched or re-read page
// landed with its digest — so only a departing guest's pages written since it
// arrived are hashed.
func (h *Host) tableKeys(v *vm.VM) []checksum.Sum {
	sums, hashed := v.Digests(0, v.NumPages(), checkpoint.ObjectAlgorithm, nil)
	h.obs.hashBytes.With(h.name, "save_keys").Add(float64(int64(hashed) * vm.PageSize))
	return sums
}

// fnv64 hashes a string with FNV-1a.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// RetryPolicy configures how MigrateTo re-attempts a migration after a
// transient transport failure — a dial error, an idle timeout, a mid-stream
// reset. Terminal failures (the destination rejecting the migration, a
// local protocol violation, context cancellation) are never retried.
type RetryPolicy struct {
	// Attempts is the total number of tries, including the first. Values
	// below 2 mean a single attempt (no retry).
	Attempts int
	// Backoff is the delay before the first retry. Defaults to 200ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth. Defaults to 5s.
	MaxBackoff time.Duration
	// Multiplier scales the delay after each retry. Defaults to 2.
	Multiplier float64
	// Jitter spreads each delay by ±Jitter fraction to avoid retry
	// stampedes across a fleet. Defaults to 0.2.
	Jitter float64
}

func (p RetryPolicy) attempts() int {
	if p.Attempts < 1 {
		return 1
	}
	return p.Attempts
}

// delay computes the backoff before the (retry+1)-th retry, 0-indexed.
func (p RetryPolicy) delay(retry int) time.Duration {
	base := p.Backoff
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = 5 * time.Second
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	d := float64(base)
	for i := 0; i < retry; i++ {
		d *= mult
		if d >= float64(maxB) {
			d = float64(maxB)
			break
		}
	}
	jitter := p.Jitter
	if jitter <= 0 {
		jitter = 0.2
	}
	d *= 1 + jitter*(2*rand.Float64()-1)
	if d < 0 {
		d = 0
	}
	if d > float64(maxB) {
		d = float64(maxB)
	}
	return time.Duration(d)
}

// Retryable classifies a migration error: true means a fresh attempt on a
// new connection could plausibly succeed (the peer or the network hiccuped,
// or the peer's storage flaked mid-merge), false means retrying is
// pointless or unsafe. The routing is core.Classify's: a classified
// core.MigrationError anywhere in the chain is authoritative; otherwise
// rejection, protocol violations and cancellation are terminal and
// everything else (dial failures, idle timeouts, resets, truncated
// streams) is worth a retry.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, ErrNoSuchVM) {
		return false
	}
	return core.Classify(err) != core.ClassTerminal
}

// saveOrDegrade runs one best-effort checkpoint persist — a rung of the
// graceful-degradation ladder. A broken save stream (a write under the
// migration failed) is recorded and retried once, the retry writing the
// whole image after the fact; a full store (ENOSPC from the disk or
// ErrQuotaExceeded from the quota) gets one GC-then-retry. Any failure that
// survives is recorded — vecycle_degraded_total, a trace event, OnError —
// and swallowed. stage names the rung (core.Stage* constants). Returns true
// when the save ultimately succeeded.
func (h *Host) saveOrDegrade(stage string, rec *obs.Recorder, save func() error) bool {
	err := save()
	switch {
	case errors.Is(err, checkpoint.ErrStreamBroken):
		h.degrade(stage, rec, err)
		err = save()
	case errors.Is(err, checkpoint.ErrQuotaExceeded) || faultfs.Label(err) == "enospc":
		// The pool may hold dead segments a collection can turn into room;
		// one pass, one more try. GC failing too just degrades below.
		if _, gcErr := h.store.GC(); gcErr == nil {
			err = save()
		}
	}
	if err == nil {
		return true
	}
	h.degrade(stage, rec, err)
	return false
}

// degrade records one rung of the ladder taken at stage because of err.
func (h *Host) degrade(stage string, rec *obs.Recorder, err error) {
	fault := faultfs.Label(err)
	h.obs.degraded.With(h.name, stage, fault).Inc()
	rec.Event(obs.Event{Kind: core.EventDegraded, Detail: stage + ":" + fault})
	if h.OnError != nil {
		h.OnError(fmt.Errorf("sched: %s degraded (%s): %w", stage, fault, err))
	}
}

// saveCheckpoint commits v's checkpoint through save — the stream the
// migration wrote pages into, or nil for none — as a rung of the ladder
// (saveOrDegrade), sums being its digest table under alg
// (checkpoint.SaveStream.Commit). A stream commits once, so a retry commits
// a fresh one, which writes every missing page itself. A successful save is
// traced as a checkpoint-saved event naming the image and how many of the
// pages the store was missing were streamed and how many caught up after
// the ack.
func (h *Host) saveCheckpoint(stage string, rec *obs.Recorder, save *checkpoint.SaveStream, v *vm.VM, alg checksum.Algorithm, sums []checksum.Sum, image string) {
	var counts checkpoint.SaveCounts
	if h.saveOrDegrade(stage, rec, func() error {
		if save == nil {
			save = h.store.OpenSave(v.Name())
		}
		st := save
		save = nil
		var err error
		counts, err = st.Commit(v, checkpoint.EntryComplete, alg, sums)
		return err
	}) {
		rec.Event(obs.Event{Kind: "checkpoint-saved",
			Detail: fmt.Sprintf("%s streamed=%d caught_up=%d", image, counts.Streamed, counts.CaughtUp)})
	}
}

// MigrateOptions tunes an outgoing migration from a host.
type MigrateOptions struct {
	// Recycle enables checkpoint-assisted mode (default in VeCycle
	// deployments; disable for a baseline QEMU-style migration).
	//
	// A recycled migration offers the destination this host's own complete
	// store entry of the VM by its manifest root — normally the arrival image
	// saved when the VM came from there. A destination that kept the same
	// checkpoint skips its announcement (§3.2's ping-pong, durable because it
	// lives in the store); any other announces as usual.
	Recycle bool
	// KeepCheckpoint writes a local checkpoint after the VM leaves (the
	// core of VeCycle). Disable to model a host with no spare disk.
	KeepCheckpoint bool
	// UseDelta sends partially-changed pages as XBZRLE deltas against this
	// host's stored checkpoint of the VM. The optimization is *optimistic*:
	// it assumes the local image equals the destination's checkpoint, which
	// holds in two-host ping-pong with SaveArrivals + KeepCheckpoint but
	// can go stale when the VM roams more hosts. A stale base is caught by
	// the destination's mandatory per-delta verification; MigrateTo then
	// retries the migration once without deltas.
	UseDelta bool
	// Compress deflates full-page payloads (core.SourceOptions.Compress).
	Compress bool
	// Alg selects the page-checksum algorithm (core.SourceOptions.Alg);
	// zero keeps the engine default (checksum.Default, which is also what
	// the checkpoint store keys pages by — another strong algorithm works
	// but costs a rehash at every save and restore). Weak algorithms (fnv,
	// fast64) are only valid for baseline migrations — recycling needs a
	// collision-resistant digest to stand in for page content.
	Alg checksum.Algorithm
	// MaxRounds bounds the pre-copy rounds (core.SourceOptions.MaxRounds);
	// 0 keeps the engine default.
	MaxRounds int
	// StopThreshold is the dirty-page count triggering the final round
	// (core.SourceOptions.StopThreshold); 0 keeps the engine default.
	StopThreshold int
	// IdleTimeout overrides Host.IdleTimeout for this migration's
	// connections. Zero inherits the host setting; negative disables.
	IdleTimeout time.Duration
	// Retry re-attempts the migration on transient transport failures with
	// exponential backoff. The zero value performs a single attempt.
	Retry RetryPolicy
	// OnAttempt, when non-nil, observes every engine attempt of this
	// migration — the first try, the delta fallback, and each retry — with
	// its 1-based attempt number and outcome. The chaos tests use it to
	// assert that resumed attempts resend strictly fewer full pages.
	OnAttempt func(attempt int, m core.Metrics, err error)
	// Pause and Resume bracket the stop-and-copy phase, as in
	// core.SourceOptions.
	Pause  func()
	Resume func()
}

// migrationIdle resolves the per-migration idle budget against the host's.
func (h *Host) migrationIdle(override time.Duration) time.Duration {
	if override != 0 {
		return resolveIdle(override)
	}
	return h.idle()
}

// MigrateTo live-migrates the named resident VM to the peer host listening
// at addr. On success the VM is no longer resident here and, when
// KeepCheckpoint is set, a checkpoint of its final state is stored locally.
//
// Cancelling ctx aborts the migration (and any pending retry wait) with
// ctx's error. Transient failures are retried per opts.Retry; a rejection
// by the destination is terminal. An attempt with an optimistic delta base
// that fails is re-run once without deltas before the retry policy is
// consulted, preserving the stale-delta fallback.
func (h *Host) MigrateTo(ctx context.Context, addr, vmName string, opts MigrateOptions) (core.Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	h.mu.Lock()
	v, ok := h.vms[vmName]
	h.mu.Unlock()
	if !ok {
		return core.Metrics{}, fmt.Errorf("%w: %q", ErrNoSuchVM, vmName)
	}
	rec := h.obs.begin("source", vmName, addr)
	m, err := h.runMigrateTo(ctx, addr, vmName, v, opts, rec)
	h.obs.finish(rec, "source", vmName, m, err)
	return m, err
}

// runMigrateTo is the body of MigrateTo, split out so every return funnels
// through one obs.finish call.
func (h *Host) runMigrateTo(ctx context.Context, addr, vmName string, v *vm.VM, opts MigrateOptions, rec *obs.Recorder) (core.Metrics, error) {
	var deltaBase core.PageProvider
	if opts.UseDelta {
		if cp := h.openDeltaBase(vmName, rec); cp != nil {
			defer cp.Close()
			deltaBase = cp
		}
	}

	idle := h.migrationIdle(opts.IdleTimeout)

	// Unshared storage: the block device moves first, through the same
	// engine on its own connection, so the guest's final rounds overlap
	// only with RAM streaming (QEMU's block-then-RAM ordering).
	h.mu.Lock()
	d := h.disks[vmName]
	h.mu.Unlock()
	if d != nil {
		// The disk leg is its own wire session; trace and count it as its
		// own migration record, named after the disk's backing VM.
		diskName := d.Backing().Name()
		drec := h.obs.begin("source", diskName, addr)
		dm, derr := h.migrateDisk(ctx, addr, d, idle, opts, drec)
		h.obs.finish(drec, "source", diskName, dm, derr)
		if derr != nil {
			return core.Metrics{}, fmt.Errorf("sched: disk migration: %w", derr)
		}
		rec.Event(obs.Event{Kind: "disk", Bytes: dm.BytesSent, Detail: diskName})
		if opts.KeepCheckpoint {
			h.saveOrDegrade(core.StageDiskCheckpoint, rec, func() error {
				return h.store.Save(d.Backing())
			})
		}
	}

	// sent records each page's digest as it is encoded; after a successful
	// attempt it holds the paused final state's sums, which the
	// KeepCheckpoint save below hands to the store as the checkpoint's page
	// keys. The engine resets it at every attempt, so retries never
	// inherit a failed attempt's partial table. Nil (recording disabled)
	// when no checkpoint will be written.
	var sent *core.SumTable
	// save is the departure image, written as round one sends the pages
	// this host's own checkpoint lacks; its commit follows the ack. Every
	// attempt writes into it: its slots are content addressed, so a failed
	// attempt's pages are at worst dead ones.
	var save *checkpoint.SaveStream
	if opts.KeepCheckpoint {
		sent = core.NewSumTable()
		save = h.store.OpenSave(vmName)
		defer save.Abort()
	}
	attempt := func(base core.PageProvider) (core.Metrics, error) {
		conn, err := h.dial(ctx, addr)
		if err != nil {
			return core.Metrics{}, err
		}
		defer conn.Close()
		// Looked up per attempt: the entry is whatever the store holds now, and
		// the destination decides by comparing roots, so a checkpoint either
		// side lost, replaced or salvaged over simply fails to match.
		var mirror *core.Mirror
		if opts.Recycle {
			if root, keys, ok := h.store.Mirror(vmName); ok {
				mirror = &core.Mirror{Root: root, Keys: keys}
			}
		}
		return core.MigrateSource(ctx, core.NewDeadlineConn(conn, idle), v, core.SourceOptions{
			Recycle:       opts.Recycle,
			Alg:           opts.Alg,
			Mirror:        mirror,
			DeltaBase:     base,
			SentSums:      sent,
			Save:          save,
			Compress:      opts.Compress,
			MaxRounds:     opts.MaxRounds,
			StopThreshold: opts.StopThreshold,
			Pause:         opts.Pause,
			Resume:        opts.Resume,
			OnEvent:       h.obs.eventFunc(rec, "source"),
		})
	}

	attempts := opts.Retry.attempts()
	base := deltaBase
	deltaFallback := base != nil
	var m core.Metrics
	var err error
	attemptNo := 0
	for retries := 0; ; {
		m, err = attempt(base)
		attemptNo++
		if opts.OnAttempt != nil {
			opts.OnAttempt(attemptNo, m, err)
		}
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			// Cancellation is terminal everywhere — whether it surfaced
			// mid-stream (as a wrapped transport error) or would have been
			// caught mid-backoff, the caller sees the ctx error itself.
			return m, ctx.Err()
		}
		if errors.Is(err, core.ErrRejected) {
			return m, err
		}
		if deltaFallback {
			// Delta encoding is optimistic: if this host's checkpoint mirror
			// went stale (the VM visited the destination via a third host),
			// the destination's mandatory per-delta verification aborts the
			// stream. Retry once on a fresh connection without deltas; this
			// fallback does not consume a retry attempt.
			if h.OnError != nil {
				h.OnError(fmt.Errorf("sched: delta migration of %q to %s failed (%v); retrying without deltas", vmName, addr, err))
			}
			h.obs.fallbacks.With(h.name).Inc()
			rec.Event(obs.Event{Kind: "delta-fallback", Detail: err.Error()})
			base = nil
			deltaFallback = false
			continue
		}
		// After the first failure the destination may hold a salvage image,
		// which is never a sound delta target; stop offering deltas for the
		// rest of the chain.
		base = nil
		deltaFallback = false
		if !Retryable(err) || retries >= attempts-1 {
			return m, err
		}
		retries++
		delay := opts.Retry.delay(retries - 1)
		if h.OnError != nil {
			h.OnError(fmt.Errorf("sched: migration of %q to %s failed (attempt %d/%d: %v); retrying in %v", vmName, addr, retries, attempts, err, delay))
		}
		h.obs.retries.With(h.name).Inc()
		rec.Event(obs.Event{Kind: "retry", Round: retries, Detail: fmt.Sprintf("%v; backoff %v", err, delay)})
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return m, ctx.Err()
		case <-timer.C:
		}
	}

	// The VM now runs at the destination. Commit the local checkpoint —
	// after the migration, off the critical path, as in the paper. The
	// paused final state is exactly what the successful attempt's sum table
	// describes, so the commit hashes nothing (an incomplete table reads as
	// nil, and a table under another algorithm is no use as keys; either way
	// the commit answers by rehashing).
	if opts.KeepCheckpoint {
		sums, _ := sent.Sums()
		h.saveCheckpoint(core.StageKeepCheckpoint, rec, save, v, sent.Alg(), sums, "departure image")
	}
	h.mu.Lock()
	delete(h.vms, vmName)
	delete(h.disks, vmName)
	h.mu.Unlock()
	return m, nil
}

// openDeltaBase opens this host's checkpoint of the VM as a delta base, nil
// when there is none to offer. Only a complete checkpoint is a sound base: a
// salvage image left by an interrupted incoming migration holds another
// attempt's partial state, not a mirror of the destination's checkpoint. The
// base only serves PageAt, so it is opened under the store's own key
// algorithm whatever the migration speaks: index only, no page read, nothing
// hashed. Deltas are an optimization; an unopenable base loses it, not the
// migration, which degrades to full/sum encoding.
func (h *Host) openDeltaBase(vmName string, rec *obs.Recorder) *checkpoint.Checkpoint {
	if state, ok := h.store.State(vmName); !ok || state != checkpoint.EntryComplete {
		return nil
	}
	cp, err := h.store.Restore(vmName, checkpoint.ObjectAlgorithm, nil)
	if err != nil {
		fault := faultfs.Label(err)
		h.obs.degraded.With(h.name, core.StageDeltaBase, fault).Inc()
		rec.Event(obs.Event{Kind: core.EventDegraded, Detail: core.StageDeltaBase + ":" + fault})
		if h.OnError != nil {
			h.OnError(fmt.Errorf("sched: delta base of %q degraded (%s): %w", vmName, fault, err))
		}
		return nil
	}
	rec.Event(obs.Event{Kind: core.EventRestore, Detail: cp.IndexSource()})
	return cp
}

// migrateDisk streams the block device to the peer on its own connection.
func (h *Host) migrateDisk(ctx context.Context, addr string, d *disk.Disk, idle time.Duration, opts MigrateOptions, rec *obs.Recorder) (core.Metrics, error) {
	diskConn, err := h.dial(ctx, addr)
	if err != nil {
		return core.Metrics{}, fmt.Errorf("sched: dial for disk: %w", err)
	}
	defer diskConn.Close()
	return core.MigrateSource(ctx, core.NewDeadlineConn(diskConn, idle), d.Backing(), core.SourceOptions{
		Recycle: opts.Recycle,
		Alg:     opts.Alg,
		OnEvent: h.obs.eventFunc(rec, "source"),
	})
}
