package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// DestOptions configures an incoming migration.
type DestOptions struct {
	// Store is consulted for a checkpoint of the incoming VM. May be nil
	// (pure baseline destination).
	Store *checkpoint.Store
	// VerifyPayloads re-computes the checksum of every full page received
	// and rejects mismatches. Costs one hash per page; useful under
	// unreliable transports and in tests.
	VerifyPayloads bool
	// NoSalvage disables salvage checkpoints: a failed incoming migration
	// discards the pages it had installed instead of persisting them as a
	// partial store entry for the next attempt to resume from.
	NoSalvage bool
	// OnEvent, when non-nil, observes each protocol turn (hello, the
	// announcement, round ends, done) for tracing. Emission never alters
	// the wire stream.
	OnEvent EventFunc
	// Save, when non-nil, is the stream of the arrival checkpoint this host
	// keeps (checkpoint.Store.OpenSave); the caller commits or aborts it.
	// When the merge bootstraps from the VM's own entry, every page installed
	// in full or by delta is written to it as it lands, so the commit after
	// the ack has little left to write. A failed merge commits it as the
	// salvage checkpoint.
	Save *checkpoint.SaveStream
}

// DestResult reports the outcome of an incoming migration.
type DestResult struct {
	Metrics Metrics
	// UsedCheckpoint reports whether a local checkpoint bootstrapped RAM.
	UsedCheckpoint bool
	// ResumedFromPartial reports that the bootstrap checkpoint was a
	// salvage image left by an interrupted earlier attempt — this
	// migration resumed instead of restarting from zero.
	ResumedFromPartial bool
	// SalvagePages is the number of newly installed pages persisted as a
	// salvage checkpoint after a failed merge; zero when no salvage was
	// written.
	SalvagePages int64
	// UnionBootstrap reports that no servable checkpoint of the arriving VM
	// existed, so the announcement was assembled from the union of all
	// resident store content instead (other VMs' checkpoints, older
	// generations, salvage partials — the content-addressed pool). Implies
	// UsedCheckpoint. The union serves blocks by content but installs
	// nothing into RAM, so ResumedFromPartial stays false.
	UnionBootstrap bool
}

// IncomingSession is a half-open incoming migration: the hello has been
// read, so the receiving host knows which VM is arriving and how big it is,
// but nothing has been acknowledged yet. Hosts use this to create or locate
// the destination VM before completing the migration with Run.
type IncomingSession struct {
	h    hello
	conn io.ReadWriter
	w    *bufio.Writer
	r    *bufio.Reader
	cw   *countingWriter
	cr   *countingReader
	// save is DestOptions.Save when this merge streams into it (set in Run):
	// every page installed off the wire goes to it.
	save *checkpoint.SaveStream
}

// Accept reads the source's hello from conn and returns the session.
// Cancelling ctx aborts the blocked hello read when conn supports deadlines
// or Abort.
func Accept(ctx context.Context, conn io.ReadWriter) (s *IncomingSession, err error) {
	ctx = orBackground(ctx)
	stop := watchContext(ctx, conn)
	defer stop()
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = ctx.Err()
		}
	}()
	s = &IncomingSession{
		conn: conn,
		cw:   &countingWriter{w: conn},
		cr:   &countingReader{r: conn},
	}
	// Data direction (frames in) gets a pooled batch-sized buffer; the
	// control direction (acks out) a pooled 64 KiB one. Run and RunPostCopy
	// return them via release().
	s.w = getCtlWriter(s.cw)
	s.r = getDataReader(s.cr)

	t, err := readMsgType(s.r)
	if err != nil {
		return nil, err
	}
	if t != msgHello {
		return nil, fmt.Errorf("%w: expected hello, got %v", ErrProtocol, t)
	}
	s.h, err = readHello(s.r)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// VMName reports the incoming VM's name.
func (s *IncomingSession) VMName() string { return s.h.VMName }

// MemBytes reports the incoming VM's memory size.
func (s *IncomingSession) MemBytes() int64 {
	return int64(s.h.PageCount) * int64(s.h.PageSize)
}

// Reject refuses the migration with the given reason.
func (s *IncomingSession) Reject(reason string) error {
	if err := writeHelloAck(s.w, helloAck{OK: false, Reason: reason}); err != nil {
		return err
	}
	return flush(s.w)
}

// release returns the session's pooled wire buffers. The session must not
// perform I/O afterwards; safe to call more than once.
func (s *IncomingSession) release() {
	if s.w != nil {
		putCtlWriter(s.w)
		s.w = nil
	}
	if s.r != nil {
		putDataReader(s.r)
		s.r = nil
	}
}

// MigrateDest drives the destination side of a live migration into v over
// conn. The VM must be created (all-zero memory) and sized before the call;
// its name and page count are validated against the source's hello.
//
// The checkpoint is opened between hello and hello-ack — index only, its
// checksums the store's own keys — and its pages then installed in the
// background under round one. The paper excludes this setup from the
// reported migration time — Metrics.Duration here starts once the checkpoint
// is open, matching that accounting.
func MigrateDest(ctx context.Context, conn io.ReadWriter, v *vm.VM, opts DestOptions) (DestResult, error) {
	s, err := Accept(ctx, conn)
	if err != nil {
		return DestResult{}, err
	}
	return s.Run(ctx, v, opts)
}

// Run completes an accepted incoming migration into v. Cancelling ctx
// aborts the merge at the next message boundary (or mid-read when the
// session's connection supports deadlines or Abort).
func (s *IncomingSession) Run(ctx context.Context, v *vm.VM, opts DestOptions) (res DestResult, err error) {
	ctx = orBackground(ctx)
	stop := watchContext(ctx, s.conn)
	defer stop()
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = ctx.Err()
		}
	}()
	h := s.h
	w := s.w
	defer s.release()
	defer func() {
		res.Metrics.BytesSent = s.cw.n
		res.Metrics.BytesReceived = s.cr.n
	}()

	if reason := validateHello(h, v, false); reason != "" {
		_ = writeHelloAck(w, helloAck{OK: false, Reason: reason})
		_ = flush(w)
		return res, fmt.Errorf("%w: %s", ErrRejected, reason)
	}

	// Bootstrap from the local checkpoint if the source wants recycling and
	// we have one — complete, or the salvage image an interrupted earlier
	// attempt left (the announcement describes whichever was opened, and a
	// salvage image has no root a source could match by name).
	var cp *checkpoint.Checkpoint
	union := false
	if h.Recycle && opts.Store != nil {
		cp = s.openBootstrap(ctx, v, opts.Store, opts.OnEvent)
		if cp == nil {
			// Fresh VM on a warm host: no servable checkpoint of its own, but
			// the content-addressed pool may hold its pages anyway — other
			// VMs' checkpoints, older generations, salvage partials.
			// Announce the union of everything resident. The
			// partial-checkpoint ack bit keeps the source off delta encoding
			// (nothing was installed into v, so there is no delta base) —
			// exactly the salvage-bootstrap rule. Best-effort: a union that
			// fails to open degrades to a plain full first round.
			if ucp, members, uerr := opts.Store.OpenUnion(); uerr == nil && ucp != nil {
				cp = ucp
				union = true
				res.UnionBootstrap = true
				opts.OnEvent.emit(Event{Kind: EventUnion,
					Pages:  int64(ucp.SumSet().Len()),
					Detail: fmt.Sprintf("entries=%d", len(members))})
			} else if uerr != nil {
				opts.OnEvent.emit(Event{Kind: EventDegraded,
					Detail: StageUnionRead + ":" + faultfs.Label(uerr)})
			}
		}
	}
	// match: the source named, in its hello, the very key list this entry was
	// opened with, so it already holds the announcement. Only a complete entry
	// has such a name.
	match := false
	if cp != nil {
		defer cp.Close()
		res.UsedCheckpoint = true
		res.ResumedFromPartial = cp.Partial()
		opts.OnEvent.emit(Event{Kind: EventRestore})
		if res.ResumedFromPartial {
			opts.OnEvent.emit(Event{Kind: EventSalvage, Detail: "resumed",
				Pages: int64(cp.Pages())})
		}
		if root, ok := cp.Root(); ok && h.HasRoot {
			match = root == h.Root
		}
	}

	// Stream only over the VM's own checkpoint: there the pages the wire
	// moves are about all the save will be missing. A cold leg's round one is
	// bound by CPU, not by the link, and its save stays after the ack.
	if cp != nil && !union {
		s.save = opts.Save
	}

	start := time.Now()
	if err := writeHelloAck(w, helloAck{OK: true, HaveCheckpoint: cp != nil,
		PartialCheckpoint: union || res.ResumedFromPartial, ManifestMatch: match}); err != nil {
		return res, err
	}
	opts.OnEvent.emit(Event{Kind: EventHello, Pages: int64(h.PageCount),
		Detail: helloDetail(cp != nil, match)})
	if cp != nil && !match {
		set := cp.SumSet()
		before := s.cw.n + int64(w.Buffered())
		if err := writeHashAnnounce(w, set); err != nil {
			return res, err
		}
		res.Metrics.AnnounceBytes = s.cw.n + int64(w.Buffered()) - before
		opts.OnEvent.emit(Event{Kind: EventAnnounce, Bytes: res.Metrics.AnnounceBytes,
			Pages: int64(set.Len())})
	}
	if err := flush(w); err != nil {
		return res, err
	}

	if err = s.mergeSequential(ctx, v, opts, cp, &res, start); err != nil {
		// Let the background install finish (or stop, when ctx was cancelled
		// or a read failed) before anything else looks at v.
		drainErr := cp.Drain()
		// A recycled-page read failure — a block the merge asked for, or a
		// span of the background install — means this entry's bytes lie: the
		// index promised content the disk would not yield. Quarantine it so
		// the retry's announcement comes from the union or nothing and the
		// affected pages flow over the wire instead. Union bootstraps skip
		// the quarantine — the failing block is not attributable to any one
		// entry.
		var me *MigrationError
		if errors.As(err, &me) && me.Stage == StageRecycleRead {
			opts.OnEvent.emit(Event{Kind: EventDegraded,
				Detail: StageRecycleRead + ":" + me.Fault})
			if !union {
				_ = opts.Store.Quarantine(h.VMName, "recycled-page read failed: "+me.Err.Error())
			}
		}
		// The merge has returned and the install drained, so v's RAM is
		// stable: persist the progress as a salvage checkpoint for the next
		// attempt to resume from. An install cut short left v with less than
		// the entry it was bootstrapping from, which salvaging over that
		// entry would lose.
		if drainErr == nil {
			s.salvage(v, opts, &res)
		}
	}
	return res, err
}

// openBootstrap opens the arriving VM's own servable checkpoint, nil when
// there is none or it cannot be opened. The open is index-only — the sums are
// the entry's keys, already in memory — and the pages follow into v on
// background goroutines; the pre-copy merge awaits the spans a frame touches
// (awaitInstall) while the hello-ack, the announcement and round one cross the
// wire, and the post-copy engine drains them before it resolves its manifest.
//
// A corrupt or unreadable checkpoint must not fail the migration: the open
// degrades to none (degradeBootstrap), and the migration to the wire.
func (s *IncomingSession) openBootstrap(ctx context.Context, v *vm.VM, store *checkpoint.Store, onEvent EventFunc) *checkpoint.Checkpoint {
	if state, ok := store.State(s.h.VMName); !ok || state == checkpoint.EntryQuarantined {
		return nil
	}
	cp, err := store.Restore(s.h.VMName, checkpoint.ObjectAlgorithm, nil)
	if err == nil {
		if err = cp.InstallInto(ctx, v); err != nil {
			cp.Close()
		}
	}
	if err != nil {
		s.degradeBootstrap(store, err, onEvent)
		return nil
	}
	return cp
}

// degradeBootstrap records a bootstrap that failed with err — a rung of the
// graceful-degradation ladder (docs/ROBUSTNESS.md). A storage-borne failure
// (unreadable or torn bytes) will recur on every later bootstrap, so the entry
// is quarantined: the next arrival goes straight to the union or the wire, and
// the operator sees it in the scrub report.
func (s *IncomingSession) degradeBootstrap(store *checkpoint.Store, err error, onEvent EventFunc) {
	fault := faultfs.Label(err)
	onEvent.emit(Event{Kind: EventDegraded, Detail: StageBootstrap + ":" + fault})
	if fault == "eio" || fault == "torn" {
		_ = store.Quarantine(s.h.VMName, "bootstrap read failed: "+err.Error())
	}
}

// salvage persists the pages a failed merge had already installed as a
// partial store entry, so the next attempt's hash announcement makes the
// source resend only what is still missing. Best-effort: the migration's
// error stands whether or not the salvage write succeeds. Nothing is
// written when no new page content arrived (checksum-only progress lives
// in the previous checkpoint already, which salvaging would demote).
func (s *IncomingSession) salvage(v *vm.VM, opts DestOptions, res *DestResult) {
	installed := int64(res.Metrics.PagesFull + res.Metrics.PagesDelta)
	if opts.NoSalvage || opts.Store == nil || !s.h.Recycle || installed == 0 {
		return
	}
	if err := s.saveSalvage(v, opts); err != nil {
		opts.OnEvent.emit(Event{Kind: EventSalvage, Detail: "write-failed"})
		opts.OnEvent.emit(Event{Kind: EventDegraded,
			Detail: StageSalvage + ":" + faultfs.Label(err)})
		return
	}
	res.SalvagePages = installed
	opts.OnEvent.emit(Event{Kind: EventSalvage, Detail: "written",
		Pages: installed, Bytes: v.MemBytes()})
}

// saveSalvage commits the merge's save stream, when it has one, as the partial
// entry — the pages it streamed are on disk already — and saves one afresh
// when it has none or the stream broke.
func (s *IncomingSession) saveSalvage(v *vm.VM, opts DestOptions) error {
	if opts.Save != nil {
		_, err := opts.Save.Commit(v, checkpoint.EntryPartial)
		if !errors.Is(err, checkpoint.ErrStreamBroken) {
			return err
		}
	}
	return opts.Store.SaveSalvage(v)
}

// mergeSequential is the destination engine: the single-goroutine merge
// loop of Listing 1 over range frames — every page arrives in one, and
// applyRange installs it — with round bookkeeping. Each frame waits for the
// background install of the checkpoint spans under it (awaitInstall) before
// it lands.
func (s *IncomingSession) mergeSequential(ctx context.Context, v *vm.VM, opts DestOptions, cp *checkpoint.Checkpoint, res *DestResult, start time.Time) error {
	w, r := s.w, s.r
	st := getDestScratch()
	defer putDestScratch(st)
	rng := &st.frame
	// rangeFloor is where the next range frame may start: the source emits
	// each round's pages in ascending order, so a range below the previous
	// range's end is overlapping or descending — malformed. Reset each
	// round (later rounds legitimately revisit pages).
	var rangeFloor uint64
	// A round's bytes are the ones it decoded: the transport count less what
	// the reader holds of the next round already.
	consumed := func() int64 { return s.cr.n - int64(r.Buffered()) }
	roundStart := consumed()
	frameStart := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		t, err := readMsgType(r)
		if err != nil {
			return err
		}
		switch t {
		case msgRangeSum, msgRangeFull, msgRangeFullZ, msgRangeDelta:
			if cp == nil && (t == msgRangeSum || t == msgRangeDelta) {
				return fmt.Errorf("%w: %v received without a checkpoint", ErrProtocol, t)
			}
			if err := readRangeFrame(r, t, v.NumPages(), rangeFloor, rng); err != nil {
				return err
			}
			rangeFloor = rng.start + uint64(rng.count)
			if err := awaitInstall(cp, int(rng.start), rng.count); err != nil {
				return err
			}
			if err := applyRange(v, cp, s.save, opts.VerifyPayloads, rng, st, &res.Metrics); err != nil {
				return err
			}
			res.Metrics.PageFrames++
			if rng.count > 1 {
				res.Metrics.RangeFrames++
			}

		case msgRoundEnd:
			round, dirty, err := readRoundEnd(r)
			if err != nil {
				return err
			}
			res.Metrics.Rounds++
			opts.OnEvent.emit(Event{Kind: EventRound, Round: int(round),
				Pages: int64(dirty), Bytes: consumed() - roundStart,
				Frames: int64(res.Metrics.PageFrames - frameStart)})
			roundStart = consumed()
			frameStart = res.Metrics.PageFrames
			rangeFloor = 0

		case msgDone:
			if err := drainInstall(cp); err != nil {
				return err
			}
			if err := writeMsgType(w, msgAck); err != nil {
				return err
			}
			if err := flush(w); err != nil {
				return err
			}
			res.Metrics.Duration = time.Since(start)
			opts.OnEvent.emit(Event{Kind: EventDone, Bytes: s.cr.n})
			// The track pass: complete the table for the final arrived state,
			// "the set of pages existing at the source" (§3.2), so both hosts'
			// saves carry one key list under one manifest root. Every install
			// recorded its digest, so this hashes only pages none covered —
			// none on the normal path, where round one walks every page.
			hashed := v.CompleteDigests()
			res.Metrics.HashBytes += int64(hashed) * vm.PageSize
			res.Metrics.HashAvoidedBytes += int64(v.NumPages()-hashed) * vm.PageSize
			return nil

		default:
			return fmt.Errorf("%w: unexpected %v during merge", ErrProtocol, t)
		}
	}
}

// validateHello returns a rejection reason, or "" to accept. postCopy is the
// mode of the engine the session runs: a hello asking for the other is
// refused by name, not left to fail on the first frame it does not expect.
func validateHello(h hello, v *vm.VM, postCopy bool) string {
	switch {
	case h.Version != ProtocolVersion:
		return fmt.Sprintf("protocol version %d unsupported (want %d)", h.Version, ProtocolVersion)
	case h.PostCopy != postCopy:
		return fmt.Sprintf("%s migration sent to a %s destination", migrationMode(h.PostCopy), migrationMode(postCopy))
	case h.VMName != v.Name():
		return fmt.Sprintf("VM name %q does not match prepared VM %q", h.VMName, v.Name())
	case h.PageSize != vm.PageSize:
		return fmt.Sprintf("page size %d unsupported (want %d)", h.PageSize, vm.PageSize)
	case h.PageCount != uint64(v.NumPages()):
		return fmt.Sprintf("page count %d does not match prepared VM (%d)", h.PageCount, v.NumPages())
	// A page has one digest: the wire's is the digest table's and the store
	// key's, so a migration under any other algorithm is refused outright.
	case checksum.Algorithm(h.Alg) != checksum.Default:
		return fmt.Sprintf("checksum algorithm %v unsupported (want %v)", checksum.Algorithm(h.Alg), checksum.Default)
	default:
		return ""
	}
}

// migrationMode names a protocol mode in rejections.
func migrationMode(postCopy bool) string {
	if postCopy {
		return "post-copy"
	}
	return "pre-copy"
}
