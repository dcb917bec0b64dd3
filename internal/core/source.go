package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// Common protocol errors.
var (
	// ErrRejected is returned when the destination refuses the migration.
	ErrRejected = errors.New("core: destination rejected migration")
	// ErrProtocol is returned on unexpected messages or malformed frames.
	ErrProtocol = errors.New("core: protocol violation")
)

// SourceOptions configures an outgoing migration.
//
// Every page crosses under one checksum, checksum.Default: strong enough for
// matches declared across hosts without byte comparison (§3.4), and the
// algorithm the guest's digest table and the checkpoint store key by.
type SourceOptions struct {
	// Recycle enables checkpoint-assisted mode. When false the engine
	// behaves like stock QEMU pre-copy: every first-round page is sent in
	// full.
	Recycle bool
	// Mirror names this host's own complete checkpoint of the VM
	// (checkpoint.Store.Mirror), or nil. With Recycle the hello offers its
	// root; a destination whose entry has the same root skips its bulk
	// announcement and Keys stands in for it — the ping-pong optimization of
	// §3.2, by name. Any other destination announces as if nothing had been
	// offered.
	Mirror *Mirror
	// MaxRounds bounds the number of pre-copy rounds, including the final
	// stop-and-copy round. Defaults to 4.
	MaxRounds int
	// StopThreshold is the dirty-page count at which the engine proceeds to
	// the final round. Defaults to 64.
	StopThreshold int
	// Compress deflates full-page payloads (Svärd et al.'s orthogonal
	// optimization, combinable with checkpoint recycling). Pages that do
	// not shrink are sent raw.
	Compress bool
	// DeltaBase supplies the content the destination's RAM will hold after
	// its checkpoint bootstrap, per frame — typically this host's own
	// mirror of the peer's checkpoint (checkpoint.Checkpoint satisfies the
	// interface). When set, a changed page whose frame diverged only
	// partially is sent as an XBZRLE delta (Svärd et al.). Deltas are used
	// in the first round only: later rounds cannot assume the destination
	// frame still holds checkpoint content.
	DeltaBase PageProvider
	// Pause, when non-nil, is invoked before the final round so the caller
	// can stop the guest workload (the stop-and-copy pause). Every live
	// round has been flushed by then; the final round, its round-end and
	// done go out as one write. Resume, when non-nil, is invoked after the
	// destination acknowledges.
	Pause  func()
	Resume func()
	// OnEvent, when non-nil, observes each protocol turn (hello, rounds,
	// pause, done) for tracing. A round event marks the round encoded, with
	// its encoded bytes: the final round's are still buffered, waiting for
	// done. Emission never alters the wire stream.
	OnEvent EventFunc
	// Save, when non-nil, is the stream of the departure checkpoint this host
	// keeps (checkpoint.Store.OpenSave); the caller commits or aborts it. With
	// a Mirror, every page sent whose digest differs from the mirror's key at
	// its position is written to it as the round moves it, so the commit
	// after the ack has little left to write. Writing never alters the wire
	// stream.
	Save *checkpoint.SaveStream
}

func (o *SourceOptions) setDefaults() {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 4
	}
	if o.StopThreshold <= 0 {
		o.StopThreshold = 64
	}
}

// Mirror is a checkpoint known by name and by value: the manifest root its
// store records for it and the page-ordered key list that root is the name of.
type Mirror struct {
	Root [checkpoint.RootSize]byte
	Keys []checksum.Sum
}

// PageProvider supplies the page content a delta can be based on.
// *checkpoint.Checkpoint implements it.
type PageProvider interface {
	// PageAt returns the content of page frame i, ok=false when the frame
	// is not covered.
	PageAt(frame int) (data []byte, ok bool, err error)
}

// MigrateSource drives the source side of a live migration of v over conn.
// The guest may keep running (writing pages) throughout; the caller's
// Pause hook is invoked before the final stop-and-copy round.
//
// Cancelling ctx aborts the migration: the cancellation is observed at
// every protocol turn-taking point, and — when conn supports deadlines or
// Abort (net.Conn, DeadlineConn) — also interrupts an in-flight blocking
// read or write. The returned error is then ctx.Err().
//
// On success the returned metrics describe the transfer as seen from the
// source. The outgoing checkpoint is the caller's: pass its stream as
// SourceOptions.Save (checkpoint.Store.OpenSave) and the pages that differ
// from the mirror are written while they cross; commit it once this returns
// — after the destination's ack — or abort it on failure. The commit is
// excluded from the migration time, as in the paper's measurements.
func MigrateSource(ctx context.Context, conn io.ReadWriter, v *vm.VM, opts SourceOptions) (m Metrics, err error) {
	ctx = orBackground(ctx)
	stop := watchContext(ctx, conn)
	defer stop()
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = ctx.Err()
		}
	}()
	opts.setDefaults()

	start := time.Now()
	cw := &countingWriter{w: conn}
	cr := &countingReader{r: conn}
	// Data direction (frames out) gets a pooled batch-sized buffer; the
	// control direction (acks in) a pooled 64 KiB one.
	w := getDataWriter(cw)
	r := getCtlReader(cr)
	defer putDataWriter(w)
	defer putCtlReader(r)
	defer func() {
		m.BytesSent = cw.n
		m.BytesReceived = cr.n
	}()

	h := newHello(v)
	h.Recycle = opts.Recycle
	if opts.Recycle && opts.Mirror != nil {
		h.HasRoot, h.Root = true, opts.Mirror.Root
	}
	if err := writeHello(w, h); err != nil {
		return m, err
	}
	if err := flush(w); err != nil {
		return m, err
	}
	// Built while the destination allocates the guest and opens its index, so
	// a match costs the return nothing here; a mismatch wastes it unseen.
	var mirrorSums *checksum.Set
	if h.HasRoot {
		mirrorSums = checksum.NewSet(len(opts.Mirror.Keys))
		mirrorSums.AddAll(opts.Mirror.Keys)
	}

	t, err := readMsgType(r)
	if err != nil {
		return m, err
	}
	if t != msgHelloAck {
		return m, fmt.Errorf("%w: expected hello-ack, got %v", ErrProtocol, t)
	}
	ack, err := readHelloAck(r)
	if err != nil {
		return m, err
	}
	if !ack.OK {
		return m, fmt.Errorf("%w: %s", ErrRejected, ack.Reason)
	}
	if ack.ManifestMatch && !(h.HasRoot && ack.HaveCheckpoint) {
		return m, fmt.Errorf("%w: manifest match without an offered root and a checkpoint", ErrProtocol)
	}
	announced := opts.Recycle && ack.HaveCheckpoint && !ack.ManifestMatch
	opts.OnEvent.emit(Event{Kind: EventHello, Pages: int64(v.NumPages()),
		Detail: helloDetail(ack.HaveCheckpoint, ack.ManifestMatch)})

	// Determine the set of checksums available at the destination.
	var destSums *checksum.Set
	switch {
	case ack.ManifestMatch:
		destSums = mirrorSums
	case !announced:
		// Baseline mode, or the destination found no checkpoint: full first
		// round.
	default:
		// Bytes the decode consumed, tag included as on the destination: the
		// transport count minus what the control reader holds undecoded. (cr.n
		// alone misses whatever arrived in the same read as the hello-ack —
		// all of a small guest's announcement.)
		consumed := func() int64 { return cr.n - int64(r.Buffered()) }
		before := consumed()
		t, err := readMsgType(r)
		if err != nil {
			return m, err
		}
		if t != msgHashAnnounce {
			return m, fmt.Errorf("%w: expected hash-announce, got %v", ErrProtocol, t)
		}
		if destSums, err = readHashAnnounce(r); err != nil {
			return m, err
		}
		m.AnnounceBytes = consumed() - before
		opts.OnEvent.emit(Event{Kind: EventAnnounce, Bytes: m.AnnounceBytes,
			Pages: int64(destSums.Len())})
	}

	// Delta encoding is only sound when the destination actually
	// bootstrapped from its checkpoint — and from the checkpoint this
	// host's mirror describes. A salvage (partial) bootstrap means the
	// destination's RAM holds an interrupted attempt's pages, not the last
	// complete checkpoint, so the delta base is stale by construction.
	if !ack.HaveCheckpoint || !opts.Recycle || ack.PartialCheckpoint {
		opts.DeltaBase = nil
	}
	if ack.PartialCheckpoint {
		opts.OnEvent.emit(Event{Kind: EventSalvage, Detail: "resumed"})
	}

	// Stream only over this host's own checkpoint: there the pages the wire
	// moves are about all the save will be missing. A cold leg's round one is
	// bound by CPU, not by the link, and its save stays after the ack.
	var save *saveSink
	if opts.Save != nil && opts.Mirror != nil && len(opts.Mirror.Keys) == v.NumPages() {
		save = &saveSink{stream: opts.Save, mirror: opts.Mirror.Keys}
	}
	// One encoder for every round: its deflate state comes from a
	// process-wide pool, too costly to rebuild per round.
	enc, err := newSourceEncoder(destSums, opts.Compress)
	if err != nil {
		return m, err
	}
	defer enc.release()

	// Reset the dirty log: everything the guest writes from here on must be
	// re-sent in a later round.
	v.HarvestDirty()

	// roundDetail renders a round's hash work — pages digested here versus
	// pages whose digest came from the guest's table — and, when compressing,
	// the entropy gate's hit rate, all as deltas since the given snapshot.
	roundDetail := func(since Metrics) string {
		d := fmt.Sprintf("hashed=%d cached=%d",
			(m.HashBytes-since.HashBytes)/vm.PageSize,
			(m.HashAvoidedBytes-since.HashAvoidedBytes)/vm.PageSize)
		if opts.Compress {
			d += fmt.Sprintf(" gate_attempted=%d gate_skipped=%d",
				m.CompressAttempted-since.CompressAttempted, m.CompressSkipped-since.CompressSkipped)
		}
		return d
	}

	// A round's bytes are the ones it encoded: those on the wire plus those
	// still buffered, since the final round leaves with done in one write.
	encoded := func() int64 { return cw.n + int64(w.Buffered()) }

	// Round 1: walk every page. With a destination checksum set, redundant
	// pages shrink to (page number, checksum); delta encoding against
	// DeltaBase applies in this round only.
	m.Rounds = 1
	roundStart := encoded()
	since := m
	if err := sendSequential(ctx, w, v, seqAll(v.NumPages()), enc, opts.DeltaBase, save, &m); err != nil {
		return m, err
	}
	if err := writeRoundEnd(w, 1, uint64(v.DirtyCount())); err != nil {
		return m, err
	}
	if err := flush(w); err != nil {
		return m, err
	}
	opts.OnEvent.emit(Event{Kind: EventRound, Round: 1,
		Pages: int64(v.NumPages()), Bytes: encoded() - roundStart,
		Frames: int64(m.PageFrames - since.PageFrames),
		Detail: roundDetail(since)})

	// Iterative rounds: resend pages dirtied while the previous round
	// streamed. A dirty page whose new content is already in the
	// destination's checkpoint index still shrinks to a checksum — the
	// destination resolves range-sum frames via its index in any round. The
	// final round runs with the guest paused.
	paused := false
	defer func() {
		if paused && opts.Resume != nil {
			opts.Resume()
		}
	}()
	var dirtyList []int
	for round := 2; ; round++ {
		if err := ctx.Err(); err != nil {
			return m, err
		}
		final := round >= opts.MaxRounds || v.DirtyCount() <= opts.StopThreshold
		if final && !paused {
			if opts.Pause != nil {
				opts.Pause()
			}
			paused = true
			opts.OnEvent.emit(Event{Kind: EventPause, Round: round,
				Pages: int64(v.DirtyCount())})
		}
		dirty := v.HarvestDirty()
		m.Rounds = round
		dirtyList = dirtyList[:0]
		dirty.ForEachSet(func(page int) {
			dirtyList = append(dirtyList, page)
		})
		roundStart = encoded()
		since = m
		if err := sendSequential(ctx, w, v, seqList(dirtyList), enc, nil, save, &m); err != nil {
			return m, err
		}
		if err := writeRoundEnd(w, uint32(round), uint64(len(dirtyList))); err != nil {
			return m, err
		}
		// A live round leaves before the guest can be paused; the final
		// round's tail waits for done, so the paused guest costs one write.
		if !final {
			if err := flush(w); err != nil {
				return m, err
			}
		}
		opts.OnEvent.emit(Event{Kind: EventRound, Round: round,
			Pages: int64(len(dirtyList)), Bytes: encoded() - roundStart,
			Frames: int64(m.PageFrames - since.PageFrames),
			Detail: roundDetail(since)})
		if final {
			break
		}
	}

	if err := writeMsgType(w, msgDone); err != nil {
		return m, err
	}
	if err := flush(w); err != nil {
		return m, err
	}
	t, err = readMsgType(r)
	if err != nil {
		return m, err
	}
	if t != msgAck {
		return m, fmt.Errorf("%w: expected ack, got %v", ErrProtocol, t)
	}
	if paused {
		opts.OnEvent.emit(Event{Kind: EventResume})
	}
	m.Duration = time.Since(start)
	opts.OnEvent.emit(Event{Kind: EventDone, Bytes: cw.n})
	return m, nil
}

// sendSequential is the source engine: it streams one round's pages in
// batchPages-sized units — fill, hash offload, encode, digest write-back, one
// buffered write per batch, then the batch's changed pages to the save
// stream — on the calling goroutine, in page order. Cancellation is checked
// once per batch.
func sendSequential(ctx context.Context, w io.Writer, v *vm.VM, pages pageSeq, enc *sourceEncoder, base PageProvider, save *saveSink, m *Metrics) error {
	n := pages.len()
	b := batchPool.Get().(*pageBatch)
	defer putBatch(b)
	for off := 0; off < n; off += batchPages {
		if err := ctx.Err(); err != nil {
			return err
		}
		cnt := batchPages
		if off+cnt > n {
			cnt = n - off
		}
		b.pages = b.pages[:cnt]
		for i := 0; i < cnt; i++ {
			b.pages[i] = pages.at(off + i)
		}
		epoch := v.DigestEpoch()
		offloadBatchSums(b, fillBatch(v, b, m))
		if err := encodeBatch(enc, base, b, m); err != nil {
			return err
		}
		v.StoreDigests(epoch, b.pages, b.sums[:cnt])
		if err := emitBatch(w, b, save); err != nil {
			return err
		}
		b.buf.Reset()
	}
	return nil
}

// deltaLimit caps delta size: beyond half a page the full (or compressed)
// encoding is at least as good once framing is paid.
const deltaLimit = vm.PageSize / 2
