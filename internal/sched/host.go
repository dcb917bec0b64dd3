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
// transport hardening (idle deadlines, retry/backoff) and
// the observability seam: every migration, either role, is folded into an
// internal/obs registry and trace log, optionally served over HTTP by
// ListenOps (docs/OBSERVABILITY.md).
package sched

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"vecycle/internal/checkpoint"
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
	opsSrv   *obs.Server    // optional ops HTTP listener (ListenOps)
	wg       sync.WaitGroup // accept loop, handlers, flush watchers: Close waits for them

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
	// image has the same key list as the checkpoint the sending peer wrote
	// when the VM departed, so the return migration offers it by name and
	// the peer announces nothing (MigrateOptions.Recycle). Costs one image
	// write per arrival.
	SaveArrivals bool

	// IdleTimeout bounds each individual read and write on migration
	// connections, both accept- and dial-side. Zero selects
	// DefaultIdleTimeout; negative disables the per-I/O deadline.
	IdleTimeout time.Duration

	// DialFunc, when non-nil, replaces outbound connection establishment —
	// the seam the fault-injection tests use to interpose a
	// core.FaultConn. nil dials TCP with dialTimeout.
	DialFunc func(ctx context.Context, addr string) (io.ReadWriteCloser, error)

	// retryAfter, when non-nil, makes the channel a retry's backoff waits on
	// in place of a timer for the delay: the seam tests use to retry at once.
	retryAfter func(time.Duration) <-chan time.Time
}

// tuneConn turns Nagle's algorithm off on a migration connection, accept- and
// dial-side. It is a no-op on anything but a *net.TCPConn (tests dial
// net.Pipe and fault wrappers through DialFunc). The engine already batches
// frames into megabyte writes, so coalescing in the kernel would only delay
// the small control turns (hello, acks) the protocol blocks on.
func tuneConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
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
	switch d := h.IdleTimeout; {
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
	tuneConn(conn)
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
// peer. It also waits for the flushes of the checkpoints the host committed,
// their failures recorded, and then flushes the store, so every checkpoint is
// durable when Close returns; a flush that fails is Close's error.
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
	if ferr := h.store.Flush(); err == nil {
		err = ferr
	}
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
			tuneConn(conn)
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
	if h.resident(name) || h.pending[name] {
		return false
	}
	h.pending[name] = true
	return true
}

// resident reports whether an arrival named name would duplicate what the
// host runs; h.mu must be held. A disk counts only together with its VM: a
// disk whose VM is not here is an orphan a failed RAM leg left behind, and
// the disk's next arrival replaces it.
func (h *Host) resident(name string) bool {
	if disk.IsDiskName(name) {
		name = name[:len(name)-len(disk.DiskSuffix)]
	}
	_, ok := h.vms[name]
	return ok
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
		h.obs.finish(rec, "dest", core.Metrics{}, rerr)
		return session.Reject(fmt.Sprintf("VM %q already resident on %s", name, h.name))
	}
	defer h.releaseArrival(name)
	res, err := h.runIncoming(ctx, session, rec)
	h.obs.finish(rec, "dest", res.Metrics, err)
	return err
}

// runIncoming is the body of handleIncoming, split out so every return
// funnels through one obs.finish call.
func (h *Host) runIncoming(ctx context.Context, session *core.IncomingSession, rec *obs.Recorder) (core.DestResult, error) {
	name := session.VMName()
	// The seed only drives the guest's future workload randomness (its
	// memory is about to be overwritten by the migration), but it must
	// differ across hosts and across arrivals: a host resuming the same VM
	// with a repeated seed would "randomly" write identical content, which
	// then spuriously matches checkpoints.
	h.mu.Lock()
	h.arrivals++
	seedHash := fnv.New64a()
	fmt.Fprintf(seedHash, "%s/%s/%d", h.name, name, h.arrivals)
	h.mu.Unlock()
	seed := int64(seedHash.Sum64())
	// A guest this host holds a checkpoint of is left to the restore's span
	// fills, so the hello-ack does not wait for its RAM to be zeroed; any
	// other arrival is allocated here, as the source waits for the ack
	// (DESIGN.md §5.4).
	newGuest := vm.New
	if h.store.Has(name) {
		newGuest = vm.NewLazy
	}
	dst, err := newGuest(vm.Config{Name: name, MemBytes: session.MemBytes(), Seed: seed})
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
	onEvent := h.obs.eventFunc(rec, "dest")
	res, err := session.Run(ctx, dst, core.DestOptions{
		Store:   h.store,
		OnEvent: onEvent,
		Save:    save,
	})
	if err != nil {
		if res.Salvage {
			// Persist the progress for the next attempt to resume from: its
			// announcement makes the source resend only what is still missing.
			// Best-effort, like every save: the migration's error stands.
			if h.saveCheckpoint(core.StageSalvage, rec, save, dst, "salvage image", checkpoint.EntryPartial) != nil {
				onEvent(core.Event{Kind: core.EventSalvage, Detail: "write-failed"})
			} else {
				onEvent(core.Event{Kind: core.EventSalvage, Detail: "written",
					Pages: int64(res.Metrics.PagesFull), Bytes: dst.MemBytes()})
			}
		}
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
				onEvent(core.Event{Kind: core.EventSalvage, Detail: "superseded"})
			}
		}
	}
	if h.SaveArrivals {
		// The merge left every page's digest in the guest's digest table, so
		// the save hashes nothing. The persist is best-effort: the VM has
		// fully arrived, so a failed save degrades (the next migration runs
		// cold) instead of failing it.
		_ = h.saveCheckpoint(core.StageSaveArrivals, rec, save, dst, "arrival image", checkpoint.EntryComplete)
	}
	if err := h.register(dst); err != nil {
		return res, err
	}
	if h.OnArrival != nil && !disk.IsDiskName(dst.Name()) {
		h.OnArrival(dst, res)
	}
	return res, nil
}

// register makes an arrived VM, or a disk's backing region, resident,
// re-checking residency under the same lock acquisition as the insert: two
// racing arrivals of one VM must never silently overwrite each other,
// whichever registers second loses.
func (h *Host) register(dst *vm.VM) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.resident(dst.Name()) {
		return fmt.Errorf("sched: VM %q became resident on %s during migration; dropping duplicate arrival", dst.Name(), h.name)
	}
	// FromBacking accepts exactly the disks' names.
	if d, err := disk.FromBacking(dst); err == nil {
		h.disks[d.VMName()] = d
	} else {
		h.vms[dst.Name()] = dst
	}
	return nil
}

// RetryPolicy configures how MigrateTo re-attempts a leg after a transient
// transport failure — a dial error, an idle timeout, a mid-stream reset.
// Terminal failures (the destination rejecting the migration, a local
// protocol violation, context cancellation) are never retried.
type RetryPolicy struct {
	// Attempts is the total number of tries per leg, including the first.
	// Values below 2 mean a single attempt (no retry).
	Attempts int
}

// The backoff: the first retry waits firstBackoff, each later one twice the
// one before, up to maxBackoff, and every delay is spread by ±retryJitter so
// a fleet's retries do not stampede.
const (
	firstBackoff = 200 * time.Millisecond
	maxBackoff   = 5 * time.Second
	retryJitter  = 0.2
)

func (p RetryPolicy) attempts() int {
	if p.Attempts < 1 {
		return 1
	}
	return p.Attempts
}

// backoff computes the delay before the (retry+1)-th retry, 0-indexed.
func backoff(retry int) time.Duration {
	d := firstBackoff
	for i := 0; i < retry && d < maxBackoff; i++ {
		d *= 2
	}
	d = min(d, maxBackoff)
	d = time.Duration(float64(d) * (1 + retryJitter*(2*rand.Float64()-1)))
	return min(d, maxBackoff)
}

// Retryable is the one predicate that routes a migration error: true means a
// fresh attempt on a new connection could plausibly succeed, false means
// retrying is pointless or unsafe. A rejection, a protocol violation, a
// cancellation and a VM that is not here are terminal; everything else —
// dial failures, idle timeouts, resets, truncated streams, a peer's storage
// flaking mid-merge — is worth a retry.
func Retryable(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, ErrNoSuchVM),
		errors.Is(err, core.ErrRejected),
		errors.Is(err, core.ErrProtocol),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

// degrade records one rung of the ladder taken at stage because of err. A
// salvage follows a failed arrival, whose handler reports the failure to
// OnError itself, so a salvage rung is left to the metric and the trace: one
// OnError per failed handler.
func (h *Host) degrade(stage string, rec *obs.Recorder, err error) {
	fault := faultfs.Label(err)
	h.obs.degraded.With(h.name, stage, fault).Inc()
	rec.Event(obs.Event{Kind: core.EventDegraded, Detail: stage + ":" + fault})
	if h.OnError != nil && stage != core.StageSalvage {
		h.OnError(fmt.Errorf("sched: %s degraded (%s): %w", stage, fault, err))
	}
}

// saveCheckpoint commits v's checkpoint in the given state through save — the
// stream the migration wrote pages into, or nil for none — keyed from the
// guest's digest table (checkpoint.SaveStream.Commit). Every host save runs
// through it: the departure image (keep-checkpoint), the arrival image
// (save-arrivals) and the partial image of a failed arrival (salvage), and it
// books what each commit and collection did. The persist is best-effort, a
// rung of the graceful-degradation ladder: a broken stream (a write under the
// migration failed) is recorded and retried once on a fresh stream, which
// writes every missing page itself; a full store (ENOSPC from the disk) gets
// one GC-then-retry. A failure that survives is recorded —
// vecycle_degraded_total, a trace event, OnError — and returned for the
// caller to note; it never fails the migration. stage names the rung
// (core.Stage* constants). A successful save is traced as a checkpoint-saved
// event naming the image and how many of the pages the store was missing
// were streamed and how many caught up after the ack.
//
// A commit returns once the checkpoint is visible; the store's flush makes it
// durable behind the caller. A flush that fails loses the checkpoint (the
// store recovers as from a crash) and is recorded on the flush rung
// (core.StageFlush), whenever it happens.
func (h *Host) saveCheckpoint(stage string, rec *obs.Recorder, save *checkpoint.SaveStream, v *vm.VM, image string, state checkpoint.EntryState) error {
	// A stream commits once, so each try takes the one left and the next
	// opens afresh.
	var st *checkpoint.SaveStream
	commit := func() (checkpoint.SaveCounts, error) {
		st = save
		if st == nil {
			st = h.store.OpenSave(v.Name())
		}
		save = nil
		counts, err := st.Commit(v, state)
		// A broken stream fails before keying anything.
		if !errors.Is(err, checkpoint.ErrStreamBroken) {
			h.obs.saved(v, counts)
		}
		return counts, err
	}
	counts, err := commit()
	switch {
	case errors.Is(err, checkpoint.ErrStreamBroken):
		h.degrade(stage, rec, err)
		counts, err = commit()
	case faultfs.Label(err) == "enospc":
		// The pool may hold dead segments a collection can turn into room;
		// one pass, one more try. GC failing too just degrades below.
		if rep, gcErr := h.store.GC(); gcErr == nil {
			h.obs.collected(rep)
			counts, err = commit()
		}
	}
	if err != nil {
		h.degrade(stage, rec, err)
		return err
	}
	rec.Event(obs.Event{Kind: "checkpoint-saved",
		Detail: fmt.Sprintf("%s streamed=%d caught_up=%d", image, counts.Streamed, counts.CaughtUp)})
	// Close waits for the flush's outcome to be recorded.
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		if err := st.Durable(); err != nil {
			h.degrade(core.StageFlush, rec, err)
		}
	}()
	return nil
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
	// MaxRounds bounds the pre-copy rounds (core.SourceOptions.MaxRounds);
	// 0 keeps the engine default.
	MaxRounds int
	// StopThreshold is the dirty-page count triggering the final round
	// (core.SourceOptions.StopThreshold); 0 keeps the engine default.
	StopThreshold int
	// Retry re-attempts each leg on transient transport failures with
	// exponential backoff. The zero value performs a single attempt.
	Retry RetryPolicy
	// OnAttempt, when non-nil, observes every engine attempt of every leg of
	// this migration — an attached disk's first, then the RAM's; the first
	// try and each retry — with its 1-based attempt number within the leg
	// and its outcome. The chaos tests use it to assert that resumed
	// attempts resend strictly fewer full pages.
	OnAttempt func(attempt int, m core.Metrics, err error)
	// Pause and Resume bracket the RAM leg's stop-and-copy phase, as in
	// core.SourceOptions.
	Pause  func()
	Resume func()
}

// MigrateTo live-migrates the named resident VM to the peer host listening
// at addr. On success the VM is no longer resident here and, when
// KeepCheckpoint is set, a checkpoint of its final state is stored locally.
//
// Cancelling ctx aborts the migration (and any pending retry wait) with
// ctx's error. Transient failures are retried per opts.Retry; a rejection
// by the destination is terminal.
func (h *Host) MigrateTo(ctx context.Context, addr, vmName string, opts MigrateOptions) (core.Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	h.mu.Lock()
	v, ok := h.vms[vmName]
	d := h.disks[vmName]
	h.mu.Unlock()
	if !ok {
		return core.Metrics{}, fmt.Errorf("%w: %q", ErrNoSuchVM, vmName)
	}
	rec := h.obs.begin("source", vmName, addr)
	m, err := h.runMigrateTo(ctx, addr, v, d, opts, rec)
	h.obs.finish(rec, "source", m, err)
	return m, err
}

// runMigrateTo is the body of MigrateTo, split out so every return funnels
// through one obs.finish call. Each leg runs through migrateLeg: first the
// attached disk d's backing region, if any, on its own connection, so the
// guest's final rounds overlap only with RAM streaming (QEMU's block-then-RAM
// ordering); then the RAM.
func (h *Host) runMigrateTo(ctx context.Context, addr string, v *vm.VM, d *disk.Disk, opts MigrateOptions, rec *obs.Recorder) (core.Metrics, error) {
	if d != nil {
		// The disk leg is its own wire session; trace and count it as its
		// own migration record, named after the disk's backing VM. It has no
		// guest stop-and-copy to bracket.
		b := d.Backing()
		dopts := opts
		dopts.Pause, dopts.Resume = nil, nil
		drec := h.obs.begin("source", b.Name(), addr)
		dm, err := h.migrateLeg(ctx, addr, b, dopts, drec)
		h.obs.finish(drec, "source", dm, err)
		if err != nil {
			return core.Metrics{}, fmt.Errorf("sched: disk migration: %w", err)
		}
		rec.Event(obs.Event{Kind: "disk", Bytes: dm.BytesSent, Detail: b.Name()})
	}
	m, err := h.migrateLeg(ctx, addr, v, opts, rec)
	if err != nil {
		return m, err
	}
	h.mu.Lock()
	delete(h.vms, v.Name())
	delete(h.disks, v.Name())
	h.mu.Unlock()
	return m, nil
}

// migrateLeg moves one region — a guest's RAM or a disk's backing region — to
// addr. Each attempt dials afresh and offers this host's store entry of the
// region by name; transient failures are retried per opts.Retry; with
// KeepCheckpoint the departure image the attempts streamed is committed after
// the ack.
func (h *Host) migrateLeg(ctx context.Context, addr string, v *vm.VM, opts MigrateOptions, rec *obs.Recorder) (core.Metrics, error) {
	// save is the departure image, written as round one sends the pages
	// this host's own checkpoint lacks; its commit follows the ack. Every
	// attempt writes into it: its slots are content addressed, so a failed
	// attempt's pages are at worst dead ones.
	var save *checkpoint.SaveStream
	if opts.KeepCheckpoint {
		save = h.store.OpenSave(v.Name())
		defer save.Abort()
	}
	attempt := func() (core.Metrics, error) {
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
			if root, keys, ok := h.store.Mirror(v.Name()); ok {
				mirror = &core.Mirror{Root: root, Keys: keys}
			}
		}
		return core.MigrateSource(ctx, core.NewDeadlineConn(conn, h.idle()), v, core.SourceOptions{
			Recycle:       opts.Recycle,
			Mirror:        mirror,
			Save:          save,
			MaxRounds:     opts.MaxRounds,
			StopThreshold: opts.StopThreshold,
			Pause:         opts.Pause,
			Resume:        opts.Resume,
			OnEvent:       h.obs.eventFunc(rec, "source"),
		})
	}

	attempts := opts.Retry.attempts()
	for no := 1; ; no++ {
		m, err := attempt()
		if opts.OnAttempt != nil {
			opts.OnAttempt(no, m, err)
		}
		switch {
		case err == nil:
			// The region now lives at the destination. Commit the local
			// checkpoint after the migration: the commit returns once the
			// entry is visible and the store's flush makes it durable behind
			// the caller, so the fsyncs are off the critical path, as in the
			// paper. The engine wrote every digest it computed back to the
			// region's table, and the final round left no page unrecorded, so
			// the commit hashes nothing.
			if opts.KeepCheckpoint {
				_ = h.saveCheckpoint(core.StageKeepCheckpoint, rec, save, v, "departure image", checkpoint.EntryComplete)
			}
			return m, nil
		case ctx.Err() != nil:
			// Cancellation is terminal everywhere — whether it surfaced
			// mid-stream (as a wrapped transport error) or would have been
			// caught mid-backoff, the caller sees the ctx error itself.
			return m, ctx.Err()
		case !Retryable(err), no >= attempts:
			return m, err
		}
		delay := backoff(no - 1)
		if h.OnError != nil {
			h.OnError(fmt.Errorf("sched: migration of %q to %s failed (attempt %d/%d: %v); retrying in %v", v.Name(), addr, no, attempts, err, delay))
		}
		h.obs.retries.With(h.name).Inc()
		rec.Event(obs.Event{Kind: "retry", Round: no, Detail: fmt.Sprintf("%v; backoff %v", err, delay)})
		timer := time.NewTimer(delay)
		wait := timer.C
		if h.retryAfter != nil {
			wait = h.retryAfter(delay)
		}
		select {
		case <-ctx.Done():
			timer.Stop()
			return m, ctx.Err()
		case <-wait:
			timer.Stop()
		}
	}
}
