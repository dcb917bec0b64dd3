package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
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
		// compressible side
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

// The golden streams, pinned by SHA-256: everything the source wrote and
// everything the destination wrote, in each of the three scenarios
// goldenExchange builds. The wire is a protocol peers of other versions
// speak, so a change that moves a byte of it fails here and has to re-pin
// these on purpose.
const (
	goldenAnnouncedSrc = "cb1be042d458ec192956b2ce1053fd90b6eb195d25586b315745ce7e935fc955"
	goldenAnnouncedDst = "aa4a852289bba63aec91e5cd9394558856ce00f4f9b4770c7fd073a1caf0d06b"
	goldenLegacySrc    = "64f3e2bd70669841bcc64b81d915e2d5f49a9ba7c8eb94ad51333e0418f62704"
	goldenLegacyDst    = "f48cf1666f605cd22cd17c70c1cc985e134c560a523baa1bb4be7417d6de26e4"
	goldenByNameSrc    = "938c2661f911d0382430d11339e6cb74b59d60ec86f843fec3c2718558df332a"
	goldenByNameDst    = "850ff6763fff2d5e23a60a9248e9773a520014416fed8fb71bcd7e36d4730a06"
)

// checkGolden fails the test unless stream hashes to the pinned digest.
func checkGolden(t *testing.T, what string, stream []byte, want string) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256(stream)); got != want {
		t.Errorf("%s: %d bytes hash to %s, want the pinned %s", what, len(stream), got, want)
	}
}

// goldenExchange migrates a freshly reconstructed golden guest and returns
// the exact bytes each side wrote. onEvent, when non-nil, is installed on
// both endpoints — the pinned digests then prove observability never reaches
// the wire. legacy pins both endpoints to the per-page v1 stream (no range
// frames). With named set the source offers the checkpoint by its manifest
// root, under the store's key algorithm (the root is a name for those keys).
func goldenExchange(t *testing.T, onEvent EventFunc, legacy, named bool) (fromSrc, fromDst []byte, _ Metrics, _ *vm.VM) {
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

	dst := newVM(t, "vm0", goldenPages, 1000)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rc, rcDst := &recordConn{Conn: a}, &recordConn{Conn: b}
	sopts := SourceOptions{
		Recycle:       true,
		Compress:      true,
		DeltaBase:     base,
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
		_, derr = MigrateDest(context.Background(), rcDst, dst, DestOptions{
			Store:          store,
			VerifyPayloads: true,
			NoRangeFrames:  legacy,
			OnEvent:        onEvent,
		})
	}()
	wg.Wait()
	if serr != nil {
		t.Fatalf("source: %v", serr)
	}
	if derr != nil {
		t.Fatalf("destination: %v", derr)
	}
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	return rc.rec.Bytes(), rcDst.rec.Bytes(), sm, src
}

// TestGoldenStreamEquivalence pins the announced conversation — compression,
// deltas, checksum elimination, range frames and a second round all active —
// to its recorded digests in both directions. The run has an event hook on
// both ends, so equality also proves observability is about the stream,
// never in it.
func TestGoldenStreamEquivalence(t *testing.T) {
	var events atomic.Int64
	stream, reply, gm, _ := goldenExchange(t, func(Event) { events.Add(1) }, false, false)
	if events.Load() == 0 {
		t.Fatal("no events observed")
	}
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
	// must actually coalesce — otherwise the digest only pins the per-page
	// path.
	if gm.RangeFrames == 0 {
		t.Fatal("golden scenario emitted no range frames")
	}
	if gm.PageFrames >= gm.PagesSum+gm.PagesFull+gm.PagesDelta {
		t.Fatalf("PageFrames = %d not below page count %d; nothing coalesced",
			gm.PageFrames, gm.PagesSum+gm.PagesFull+gm.PagesDelta)
	}
	checkGolden(t, "source stream", stream, goldenAnnouncedSrc)
	checkGolden(t, "destination reply", reply, goldenAnnouncedDst)
}

// TestGoldenStreamByName pins the conversation of a migration matched by
// name, and explains it against the announced golden one. The source's stream
// is the announced stream with one difference — its hello sets flag bit 1 and
// carries the 32-byte manifest root after the flags; round one and everything
// after it is byte for byte the announced run's (the source probes its own
// key list, the same set the announcement would have delivered). The
// destination's whole side of the conversation is five bytes: a hello-ack
// with the have-checkpoint, compact-announce, range-frames and manifest-match
// bits and an empty reason, then the final ack — no announcement.
func TestGoldenStreamByName(t *testing.T) {
	golden, announcedReply, gm, src := goldenExchange(t, nil, false, false)
	helloLen := 1 + 2 + 2 + len(src.Name()) + 4 + 8 + 1 + 1
	if announcedReply[4] != byte(msgHashAnnounceV2) {
		t.Fatalf("announced run's reply carries tag %d after the hello-ack, want the v2 announcement", announcedReply[4])
	}
	root := mirrorOf(t, goldenStore(t), "vm0").Root
	stream, reply, sm, _ := goldenExchange(t, nil, false, true)
	wantHello := append([]byte(nil), golden[:helloLen]...)
	wantHello[helloLen-1] |= 2
	if !bytes.Equal(stream[:helloLen], wantHello) {
		t.Fatalf("hello % x, want % x", stream[:helloLen], wantHello)
	}
	if !bytes.Equal(stream[helloLen:helloLen+len(root)], root[:]) {
		t.Errorf("hello carries root % x, want % x", stream[helloLen:helloLen+len(root)], root)
	}
	if !bytes.Equal(stream[helloLen+len(root):], golden[helloLen:]) {
		t.Errorf("stream after the hello differs from the announced run's (lens %d vs %d)",
			len(stream)-helloLen-len(root), len(golden)-helloLen)
	}
	if want := []byte{byte(msgHelloAck), 1 | 2 | 4 | 16 | 32, 0, 0, byte(msgAck)}; !bytes.Equal(reply, want) {
		t.Errorf("destination sent % x, want % x", reply, want)
	}
	if sm.AnnounceBytes != 0 || sm.PagesSum != gm.PagesSum || sm.PagesFull != gm.PagesFull ||
		sm.PagesDelta != gm.PagesDelta || sm.PageFrames != gm.PageFrames {
		t.Errorf("metrics diverge from the announced run: got %+v want %+v", sm, gm)
	}
	checkGolden(t, "source stream", stream, goldenByNameSrc)
	checkGolden(t, "destination reply", reply, goldenByNameDst)
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

// TestGoldenStreamLegacyV1 pins the unnegotiated fallback: with range frames
// disabled the wire stream is the per-page v1 encoding, held to its recorded
// digests — and genuinely different bytes from the negotiated range-frame
// stream.
func TestGoldenStreamLegacyV1(t *testing.T) {
	legacy, legacyReply, lm, _ := goldenExchange(t, nil, true, false)
	if lm.RangeFrames != 0 {
		t.Fatalf("legacy run emitted %d range frames", lm.RangeFrames)
	}
	// v1 is strictly one frame per page.
	if pages := lm.PagesSum + lm.PagesFull + lm.PagesDelta; lm.PageFrames != pages {
		t.Fatalf("legacy PageFrames = %d, want one per page (%d)", lm.PageFrames, pages)
	}
	checkGolden(t, "source stream", legacy, goldenLegacySrc)
	checkGolden(t, "destination reply", legacyReply, goldenLegacyDst)
	// The negotiated stream must actually differ — coalescing reaches the
	// wire — while the page-level metrics stay identical (classification is
	// unchanged, only the framing is).
	ranged, _, rm, _ := goldenExchange(t, nil, false, false)
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

// leakSetup builds the migration the teardown tests cut: a destination
// whose store holds an older checkpoint of the guest, read back in spans
// held for hold each — so the background installer is still at work at the
// cut — and a source guest that has never migrated, whose empty digest table
// sends every page of every batch through the hash offload.
func leakSetup(t *testing.T, pages int, hold time.Duration) (src, dst *vm.VM, store *checkpoint.Store) {
	t.Helper()
	inj := faultfs.NewInjector()
	store = slowStore(t, inj)
	old := newVM(t, "vm0", pages, 3)
	if err := old.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(old); err != nil {
		t.Fatal(err)
	}
	inj.Arm(faultfs.Fault{Op: faultfs.OpReadAt, Path: ".seg", Times: -1, Latency: hold})
	src = newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	return src, newVM(t, "vm0", pages, 2), store
}

// TestPipelineCancellationNoLeak cancels a migration mid-stream on both sides
// and verifies every goroutine it started exits: the connection watchers,
// the hash offload and the background installer.
func TestPipelineCancellationNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	src, dst, store := leakSetup(t, 2048, 100*time.Millisecond)

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
		_, serr = MigrateSource(ctx, NewDeadlineConn(cc, time.Second), src, SourceOptions{Recycle: true})
	}()
	go func() {
		defer wg.Done()
		_, derr = MigrateDest(ctx, NewDeadlineConn(b, time.Second), dst, DestOptions{Store: store})
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

// TestPipelineFaultResetNoLeak injects a mid-stream connection reset and
// verifies clean teardown on both sides.
func TestPipelineFaultResetNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	src, dst, store := leakSetup(t, 512, 50*time.Millisecond)

	a, b := net.Pipe()
	cut := NewFaultConn(a, FaultConfig{ResetAfterBytes: 300_000})

	var wg sync.WaitGroup
	var serr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, serr = MigrateSource(context.Background(), cut, src, SourceOptions{Recycle: true})
		a.Close() // unblock the destination's pending read
	}()
	go func() {
		defer wg.Done()
		_, _ = MigrateDest(context.Background(), b, dst, DestOptions{Store: store})
		b.Close()
	}()
	wg.Wait()
	if !errors.Is(serr, ErrInjectedReset) {
		t.Errorf("source error = %v, want ErrInjectedReset", serr)
	}
	waitGoroutines(t, base)
}

// TestDestWorkerErrorAbortsDecoder injects a payload corruption that only the
// destination's payload verification can detect and verifies the failure
// ends both sides — the source, blocked writing to a merge that stopped
// reading, included — without leaks.
func TestDestWorkerErrorAbortsDecoder(t *testing.T) {
	base := runtime.NumGoroutine()
	src, dst, store := leakSetup(t, 512, 50*time.Millisecond)

	a, b := net.Pipe()
	// Flip one byte inside the first range frame's payload on the wire.
	corrupt := &corruptConn{Conn: a, target: 150_000}

	var wg sync.WaitGroup
	var serr, derr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, serr = MigrateSource(context.Background(), NewDeadlineConn(corrupt, time.Second), src, SourceOptions{Recycle: true})
		a.Close()
	}()
	go func() {
		defer wg.Done()
		_, derr = MigrateDest(context.Background(), NewDeadlineConn(b, time.Second), dst, DestOptions{Store: store, VerifyPayloads: true})
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
