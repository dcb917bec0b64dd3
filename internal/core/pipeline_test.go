package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

const goldenPages = 600

// fillGolden writes the pre-checkpoint state: compressible pages, random
// pages, and a tail of zero pages — all deterministic, so every call
// reconstructs the identical guest.
func fillGolden(src *vm.VM) {
	rng := rand.New(rand.NewSource(1234))
	buf := make([]byte, vm.PageSize)
	for i := 0; i < 240; i++ { // low-entropy: exercises deflate
		for j := range buf {
			buf[j] = byte((j % 32) * (i + 1))
		}
		src.WritePage(i, buf)
	}
	for i := 240; i < 480; i++ { // high-entropy: deflate falls back to raw
		rng.Read(buf)
		src.WritePage(i, buf)
	}
	// 480..599 stay zero.
}

// mutateGolden diverges the guest from its checkpoint: small in-place edits
// (delta-friendly), full rewrites (delta too large), everything else left
// matching (checksum-eliminated).
func mutateGolden(src *vm.VM) {
	rng := rand.New(rand.NewSource(5678))
	buf := make([]byte, vm.PageSize)
	for i := 240; i < 300; i++ {
		src.ReadPage(i, buf)
		for k := 0; k < 8; k++ {
			buf[(k*571)%vm.PageSize] ^= 0x5a
		}
		src.WritePage(i, buf)
	}
	for i := 300; i < 360; i++ {
		rng.Read(buf)
		src.WritePage(i, buf)
	}
	for i := 360; i < 420; i++ { // compressible rewrites: range-full-z runs
		for j := range buf {
			buf[j] = byte((j % 16) * (i + 3))
		}
		src.WritePage(i, buf)
	}
	for i := 420; i < 440; i++ { // mid-entropy rewrites: half random, half
		// zero — between the gate's clear-cut classes, lands on the
		// compressible side and must classify identically at every width
		rng.Read(buf[:vm.PageSize/2])
		for j := vm.PageSize / 2; j < vm.PageSize; j++ {
			buf[j] = 0
		}
		src.WritePage(i, buf)
	}
}

// goldenPause generates the round-2 (stop-and-copy) traffic: one page whose
// new content already sits in the destination checkpoint (iterative-round
// checksum elimination), one genuinely new random page, one compressible
// page.
func goldenPause(src *vm.VM) {
	buf := make([]byte, vm.PageSize)
	src.ReadPage(5, buf) // page 5 is unchanged checkpoint content
	src.WritePage(520, buf)
	rand.New(rand.NewSource(91)).Read(buf)
	src.WritePage(521, buf)
	for j := range buf {
		buf[j] = byte(j % 7)
	}
	src.WritePage(522, buf)
}

// recordConn tees everything the source writes. The recording is read only
// after the migration goroutines are joined.
type recordConn struct {
	net.Conn
	rec bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.rec.Write(p)
	return c.Conn.Write(p)
}

// goldenRun migrates a freshly reconstructed golden guest with the given
// worker count and returns the exact byte stream the source emitted.
// onEvent, when non-nil, is installed on both endpoints — the golden
// comparison then proves observability never reaches the wire. legacy pins
// both endpoints to the per-page v1 stream (no range frames).
func goldenRun(t *testing.T, workers int, onEvent EventFunc, legacy bool) ([]byte, Metrics, *vm.VM) {
	t.Helper()
	stream, _, sm, src := goldenExchange(t, workers, onEvent, legacy, false)
	return stream, sm, src
}

// goldenExchange is goldenRun returning both directions of the conversation.
// With named set the source offers the checkpoint by its manifest root, under
// the store's key algorithm (the root is a name for those keys).
func goldenExchange(t *testing.T, workers int, onEvent EventFunc, legacy, named bool) (fromSrc, fromDst []byte, _ Metrics, _ *vm.VM) {
	t.Helper()
	src, err := vm.New(vm.Config{Name: "vm0", MemBytes: goldenPages * vm.PageSize, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fillGolden(src)
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	mutateGolden(src)
	base, err := store.Restore("vm0", checksum.MD5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()

	dst := newVM(t, "vm0", goldenPages, int64(1000+workers))
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rc, rcDst := &recordConn{Conn: a}, &recordConn{Conn: b}
	sopts := SourceOptions{
		Recycle:       true,
		Compress:      true,
		DeltaBase:     base,
		Workers:       workers,
		NoRangeFrames: legacy,
		Pause:         func() { goldenPause(src) },
		OnEvent:       onEvent,
	}
	if named {
		sopts.Mirror = mirrorOf(t, store, "vm0")
	}

	var (
		wg   sync.WaitGroup
		sm   Metrics
		serr error
		derr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		sm, serr = MigrateSource(context.Background(), rc, src, sopts)
	}()
	go func() {
		defer wg.Done()
		// Half the variants merge pipelined too, so the golden stream is
		// also decoded by both destination engines.
		_, derr = MigrateDest(context.Background(), rcDst, dst, DestOptions{
			Store:          store,
			VerifyPayloads: true,
			Workers:        workers / 2,
			NoRangeFrames:  legacy,
			OnEvent:        onEvent,
		})
	}()
	wg.Wait()
	if serr != nil {
		t.Fatalf("workers=%d: source: %v", workers, serr)
	}
	if derr != nil {
		t.Fatalf("workers=%d: destination: %v", workers, derr)
	}
	if !src.MemEqual(dst) {
		t.Fatalf("workers=%d: memory differs at page %d", workers, src.FirstDifference(dst))
	}
	return rc.rec.Bytes(), rcDst.rec.Bytes(), sm, src
}

// TestGoldenStreamEquivalence asserts the pipelined source emits a
// byte-identical wire stream to the sequential engine for several worker
// counts, with compression, deltas, checksum elimination, and a second
// round all active. The baseline runs with no event hook and every
// variant with one, so equality also proves observability is about the
// stream, never in it.
func TestGoldenStreamEquivalence(t *testing.T) {
	golden, gm, _ := goldenRun(t, 0, nil, false)
	// The scenario must actually exercise every encoding.
	if gm.PagesSum == 0 || gm.PagesFull == 0 || gm.PagesDelta == 0 || gm.PagesCompressed == 0 {
		t.Fatalf("golden scenario too narrow: %+v", gm)
	}
	// And both entropy-gate outcomes: random rewrites must skip deflate,
	// compressible ones must attempt it.
	if gm.CompressAttempted == 0 || gm.CompressSkipped == 0 {
		t.Fatalf("entropy gate unexercised: attempted=%d skipped=%d",
			gm.CompressAttempted, gm.CompressSkipped)
	}
	if gm.Rounds < 2 {
		t.Fatalf("golden scenario ran %d round(s), want >= 2", gm.Rounds)
	}
	// Range frames are on by default, and the scenario's same-treatment runs
	// must actually coalesce — otherwise the variants below only re-prove the
	// per-page path.
	if gm.RangeFrames == 0 {
		t.Fatal("golden scenario emitted no range frames")
	}
	if gm.PageFrames >= gm.PagesSum+gm.PagesFull+gm.PagesDelta {
		t.Fatalf("PageFrames = %d not below page count %d; nothing coalesced",
			gm.PageFrames, gm.PagesSum+gm.PagesFull+gm.PagesDelta)
	}
	for _, workers := range []int{0, 1, 2, 8} {
		var events atomic.Int64
		stream, sm, _ := goldenRun(t, workers, func(Event) { events.Add(1) }, false)
		if events.Load() == 0 {
			t.Fatalf("workers=%d: no events observed", workers)
		}
		if !bytes.Equal(stream, golden) {
			i := 0
			for i < len(stream) && i < len(golden) && stream[i] == golden[i] {
				i++
			}
			t.Fatalf("workers=%d: stream diverges from sequential at byte %d (lens %d vs %d)",
				workers, i, len(stream), len(golden))
		}
		if sm.PagesFull != gm.PagesFull || sm.PagesSum != gm.PagesSum ||
			sm.PagesDelta != gm.PagesDelta || sm.PagesCompressed != gm.PagesCompressed ||
			sm.CompressAttempted != gm.CompressAttempted ||
			sm.CompressSkipped != gm.CompressSkipped ||
			sm.PageFrames != gm.PageFrames || sm.RangeFrames != gm.RangeFrames ||
			sm.BytesSent != gm.BytesSent {
			t.Errorf("workers=%d: metrics diverge: got %+v want %+v", workers, sm, gm)
		}
	}
}

// TestGoldenStreamByName pins the conversation of a migration matched by
// name against the announced golden one. The source's stream is the golden
// stream with one difference — its hello sets flag bit 1 and carries the
// 32-byte manifest root after the flags; round one and everything after it is
// byte for byte the announced run's, at every width (the source probes its
// own key list, the same set the announcement would have delivered). The
// destination's whole side of the conversation is five bytes: a hello-ack
// with the have-checkpoint, compact-announce, range-frames and manifest-match
// bits and an empty reason, then the final ack — no announcement.
func TestGoldenStreamByName(t *testing.T) {
	golden, announcedReply, gm, src := goldenExchange(t, 0, nil, false, false)
	helloLen := 1 + 2 + 2 + len(src.Name()) + 4 + 8 + 1 + 1
	if announcedReply[4] != byte(msgHashAnnounceV2) {
		t.Fatalf("announced run's reply carries tag %d after the hello-ack, want the v2 announcement", announcedReply[4])
	}
	root := mirrorOf(t, goldenStore(t), "vm0").Root
	for _, workers := range []int{0, 1, 2, 8} {
		stream, reply, sm, _ := goldenExchange(t, workers, nil, false, true)
		wantHello := append([]byte(nil), golden[:helloLen]...)
		wantHello[helloLen-1] |= 2
		if !bytes.Equal(stream[:helloLen], wantHello) {
			t.Fatalf("workers=%d: hello % x, want % x", workers, stream[:helloLen], wantHello)
		}
		if !bytes.Equal(stream[helloLen:helloLen+len(root)], root[:]) {
			t.Errorf("workers=%d: hello carries root % x, want % x", workers, stream[helloLen:helloLen+len(root)], root)
		}
		if !bytes.Equal(stream[helloLen+len(root):], golden[helloLen:]) {
			t.Errorf("workers=%d: stream after the hello differs from the announced run's (lens %d vs %d)",
				workers, len(stream)-helloLen-len(root), len(golden)-helloLen)
		}
		if want := []byte{byte(msgHelloAck), 1 | 2 | 4 | 16 | 32, 0, 0, byte(msgAck)}; !bytes.Equal(reply, want) {
			t.Errorf("workers=%d: destination sent % x, want % x", workers, reply, want)
		}
		if sm.AnnounceBytes != 0 || sm.PagesSum != gm.PagesSum || sm.PagesFull != gm.PagesFull ||
			sm.PagesDelta != gm.PagesDelta || sm.PageFrames != gm.PageFrames {
			t.Errorf("workers=%d: metrics diverge from the announced run: got %+v want %+v", workers, sm, gm)
		}
	}
}

// goldenStore saves the golden guest's pre-mutation state: the checkpoint
// every golden run starts from, whose root the by-name runs offer.
func goldenStore(t *testing.T) *checkpoint.Store {
	t.Helper()
	src, err := vm.New(vm.Config{Name: "vm0", MemBytes: goldenPages * vm.PageSize, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fillGolden(src)
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestGoldenStreamLegacyV1 pins the unnegotiated fallback: with range
// frames disabled on either side the wire stream is the per-page v1
// encoding, byte-identical at every pipeline width, identical no matter
// which side (or both) is old — and genuinely different bytes from the
// negotiated range-frame stream.
func TestGoldenStreamLegacyV1(t *testing.T) {
	legacy, lm, _ := goldenRun(t, 0, nil, true)
	if lm.RangeFrames != 0 {
		t.Fatalf("legacy run emitted %d range frames", lm.RangeFrames)
	}
	// v1 is strictly one frame per page.
	if pages := lm.PagesSum + lm.PagesFull + lm.PagesDelta; lm.PageFrames != pages {
		t.Fatalf("legacy PageFrames = %d, want one per page (%d)", lm.PageFrames, pages)
	}
	for _, workers := range []int{1, 2, 8} {
		stream, sm, _ := goldenRun(t, workers, nil, true)
		if !bytes.Equal(stream, legacy) {
			t.Fatalf("workers=%d: legacy stream diverges from sequential (lens %d vs %d)",
				workers, len(stream), len(legacy))
		}
		if sm.RangeFrames != 0 {
			t.Errorf("workers=%d: legacy run emitted %d range frames", workers, sm.RangeFrames)
		}
	}
	// The negotiated stream must actually differ — coalescing reaches the
	// wire — while the page-level metrics stay identical (classification is
	// unchanged, only the framing is).
	ranged, rm, _ := goldenRun(t, 0, nil, false)
	if bytes.Equal(ranged, legacy) {
		t.Error("negotiated and legacy streams are identical; range frames never hit the wire")
	}
	if len(ranged) >= len(legacy) {
		t.Errorf("range-frame stream is %d bytes, not smaller than v1's %d", len(ranged), len(legacy))
	}
	if rm.PagesSum != lm.PagesSum || rm.PagesFull != lm.PagesFull ||
		rm.PagesDelta != lm.PagesDelta || rm.PagesCompressed != lm.PagesCompressed ||
		rm.CompressAttempted != lm.CompressAttempted ||
		rm.CompressSkipped != lm.CompressSkipped {
		t.Errorf("page classification changed with framing: ranged %+v legacy %+v", rm, lm)
	}
}

// TestPipelineStageMetrics checks the per-stage counters are populated by a
// pipelined run and absent from a sequential one.
func TestPipelineStageMetrics(t *testing.T) {
	_, seq, _ := goldenRun(t, 0, nil, false)
	if seq.Stages.Batches != 0 {
		t.Errorf("sequential run recorded %d pipeline batches", seq.Stages.Batches)
	}
	_, par, _ := goldenRun(t, 2, nil, false)
	if par.Stages.Batches == 0 {
		t.Error("pipelined run recorded no batches")
	}
	if par.Stages.WorkerBusy == 0 {
		t.Error("pipelined run recorded no worker busy time")
	}
}

// TestIterativeRoundSumElimination verifies the satellite behavior: a page
// dirtied between rounds whose new content already exists in the
// destination's checkpoint crosses the wire as a bare checksum, in any
// round — not just the first.
func TestIterativeRoundSumElimination(t *testing.T) {
	src := newVM(t, "vm0", 128, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 128, 2)

	pause := func() {
		// Page 100's new content duplicates page 3 — present in the
		// destination checkpoint, so rounds >= 2 can still eliminate it.
		buf := make([]byte, vm.PageSize)
		src.ReadPage(3, buf)
		src.WritePage(100, buf)
		// Page 101 gets content the checkpoint cannot know.
		rand.New(rand.NewSource(424242)).Read(buf)
		src.WritePage(101, buf)
	}
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true, Pause: pause},
		DestOptions{Store: store, VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	// Round 1 eliminates all 128 pages; round 2 eliminates page 100 again.
	if sm.PagesSum != 129 {
		t.Errorf("PagesSum = %d, want 129 (dirty page with checkpointed content not eliminated)", sm.PagesSum)
	}
	if sm.PagesFull != 1 {
		t.Errorf("PagesFull = %d, want 1", sm.PagesFull)
	}
	// Page 100's frame held stale content, so the destination repaired it
	// from the checkpoint file.
	if dres.Metrics.PagesReusedFromDisk == 0 {
		t.Error("destination never re-read a checkpoint block")
	}
}

// slowWriter models a link slower than the encoders: every write sleeps,
// then succeeds.
type slowWriter struct{ d time.Duration }

func (s slowWriter) Write(p []byte) (int, error) {
	time.Sleep(s.d)
	return len(p), nil
}

// TestStageStallSplit pins the stage accounting of a pipelined source by what
// must hold whatever the scheduler does — never by which of two measured
// durations came out larger, which a loaded runner decides. Each stage
// goroutine books every moment of its life to exactly one account (sequencer:
// ingest busy, ingest stall on the in-order queue, dispatch stall on the jobs
// handoff; emitter: emit stall, emit busy; workers: busy), so the accounts of
// one goroutine sum to no more than the migration took, and time a stage
// provably spent — a wire that sleeps in every write, a sequencer that cannot
// run more than workers+2 batches ahead of it — shows up in its accounts.
func TestStageStallSplit(t *testing.T) {
	const pages = 4096 // 16 batches
	const batches = pages / batchPages
	v, err := vm.New(vm.Config{Name: "stall-vm", MemBytes: pages * vm.PageSize, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	run := func(w io.Writer, opts SourceOptions) StageMetrics {
		t.Helper()
		begin := time.Now()
		sm, err := MigrateSource(context.Background(), readWriter{bytes.NewReader(scriptedPeer(t)), w}, v, opts)
		wall := time.Since(begin)
		if err != nil {
			t.Fatal(err)
		}
		st := sm.Stages
		if st.Batches < batches {
			t.Errorf("pipeline counted %d batches, want at least %d", st.Batches, batches)
		}
		for name, d := range map[string]time.Duration{
			"sequencer (ingest busy + ingest stall + dispatch stall)": st.IngestBusy + st.IngestStall + st.DispatchStall,
			"emitter (emit stall + emit busy)":                        st.EmitStall + st.EmitBusy,
			"one worker's share of worker busy":                       st.WorkerBusy / time.Duration(opts.Workers),
		} {
			if d <= 0 || d > wall {
				t.Errorf("%s accounts %v of a %v migration", name, d, wall)
			}
		}
		return st
	}

	// A wire that sleeps in every write: a raw batch is larger than the data
	// buffer, so each reaches the wire inside the emitter's write call, and the
	// sequencer — at most workers+2 batches ahead — waits out all but the
	// first few of them in one stall account or the other.
	const nap = 10 * time.Millisecond
	const workers = 4
	st := run(slowWriter{nap}, SourceOptions{Workers: workers})
	if st.EmitBusy < batches*nap {
		t.Errorf("emit busy %v is less than %d writes of %v", st.EmitBusy, batches, nap)
	}
	if got, want := st.IngestBusy+st.IngestStall+st.DispatchStall, (batches-workers-4)*nap; got < want {
		t.Errorf("sequencer accounts %v, but stayed within %d batches of a wire that took %v per batch (want at least %v)",
			got, workers+2, nap, want)
	}

	// One worker deflating every page over an instant wire: the pool is busy
	// nearly the whole time, which is where a double-booked account would
	// break the bounds run checks.
	run(io.Discard, SourceOptions{Workers: 1, Compress: true})

	// The destination has no dispatch split — its decoder's only handoff is
	// the jobs send, accounted as ingest — so its DispatchStall stays zero
	// at any width.
	src := newVM(t, "vm0", 256, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 256, 2)
	_, dres := migrate(t, src, dst, SourceOptions{Workers: 2}, DestOptions{Workers: 4})
	if dres.Metrics.Stages.DispatchStall != 0 {
		t.Errorf("destination recorded dispatch stall %v, want 0", dres.Metrics.Stages.DispatchStall)
	}
	if dres.Metrics.Stages.Batches == 0 {
		t.Error("destination pipeline recorded no batches")
	}
}

// countConn counts bytes written while passing deadlines through to the
// underlying net.Conn.
type countConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// waitGoroutines fails the test if the goroutine count does not return to
// the baseline within a grace period.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d alive, baseline %d\n%s", n, base, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPipelineCancellationNoLeak cancels a pipelined migration mid-stream
// on both sides and verifies every stage goroutine exits.
func TestPipelineCancellationNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	src := newVM(t, "vm0", 2048, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 2048, 2)

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cc := &countConn{Conn: a}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	var serr, derr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, serr = MigrateSource(ctx, NewDeadlineConn(cc, time.Second), src, SourceOptions{Workers: 4})
	}()
	go func() {
		defer wg.Done()
		_, derr = MigrateDest(ctx, NewDeadlineConn(b, time.Second), dst, DestOptions{Workers: 4})
	}()
	// Cancel once the transfer is demonstrably mid-stream.
	for cc.n.Load() < 512*1024 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if !errors.Is(serr, context.Canceled) {
		t.Errorf("source error = %v, want context.Canceled", serr)
	}
	if !errors.Is(derr, context.Canceled) {
		t.Errorf("destination error = %v, want context.Canceled", derr)
	}
	waitGoroutines(t, base)
}

// TestPipelineFaultResetNoLeak injects a mid-stream connection reset under
// pipelined engines on both sides and verifies clean teardown.
func TestPipelineFaultResetNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	src := newVM(t, "vm0", 512, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 512, 2)

	a, b := net.Pipe()
	cut := NewFaultConn(a, FaultConfig{ResetAfterBytes: 300_000})

	var wg sync.WaitGroup
	var serr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, serr = MigrateSource(context.Background(), cut, src, SourceOptions{Workers: 4})
		a.Close() // unblock the destination's pending read
	}()
	go func() {
		defer wg.Done()
		_, _ = MigrateDest(context.Background(), b, dst, DestOptions{Workers: 4})
		b.Close()
	}()
	wg.Wait()
	if !errors.Is(serr, ErrInjectedReset) {
		t.Errorf("source error = %v, want ErrInjectedReset", serr)
	}
	waitGoroutines(t, base)
}

// TestDestWorkerErrorAbortsDecoder injects a payload corruption that only a
// destination worker can detect and verifies the failure propagates out of
// the decoder (which would otherwise stay blocked reading) without leaks.
func TestDestWorkerErrorAbortsDecoder(t *testing.T) {
	base := runtime.NumGoroutine()
	src := newVM(t, "vm0", 512, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 512, 2)

	a, b := net.Pipe()
	// Flip one byte inside the 100th page's payload on the wire.
	corrupt := &corruptConn{Conn: a, target: 150_000}

	var wg sync.WaitGroup
	var serr, derr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, serr = MigrateSource(context.Background(), NewDeadlineConn(corrupt, time.Second), src, SourceOptions{})
		a.Close()
	}()
	go func() {
		defer wg.Done()
		_, derr = MigrateDest(context.Background(), NewDeadlineConn(b, time.Second), dst, DestOptions{Workers: 4, VerifyPayloads: true})
		b.Close()
	}()
	wg.Wait()
	if !errors.Is(derr, ErrProtocol) {
		t.Errorf("destination error = %v, want ErrProtocol (checksum mismatch)", derr)
	}
	if serr == nil {
		t.Error("source finished cleanly against an aborted destination")
	}
	waitGoroutines(t, base)
}
