package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
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
// everything the destination wrote, in the two scenarios goldenExchange
// builds. The wire is a protocol peers of other versions speak, so a change
// that moves a byte of it fails here and has to re-pin these on purpose.
const (
	goldenAnnouncedSrc = "b1fc461655e3b7705fa7565f44c5286b3a99c379a5656e6a6ebdff947d1d47af"
	goldenAnnouncedDst = "3ab19b39007aabe73901acf23fb4741ba8d685eabd676e14a78ee960e90e75f2"
	goldenByNameSrc    = "595d321280cf3fdb58bfbdb89fb6c3f8401dbb120af3269d81ee658eb30d5fd5"
	goldenByNameDst    = "42a15d70066c15343066f26951fea20f0fb75f1e3d2e889e0887346a135ccf4d"
)

// The same source streams as protocol version 2 wrote them. Version 3 moved
// their bytes only where asVersion2 puts them back, so each of its streams
// rewritten by it must hash to these. The destination's side has no frame
// version 3 changed: its digests are version 2's.
const (
	version2AnnouncedSrc = "4f256f0e0ea0762c734ab8e9505bf31392ac3b29fa778688e19d828609dd6968"
	version2ByNameSrc    = "0b16b09d0967b221aae40110ab9b5e5cb187de742726c33521bdd16fe9fec8e2"
)

// The same conversations as protocol version 1 spoke them, both capabilities
// negotiated. Version 2 moved their bytes only where asVersion1 puts them
// back, so each of its streams rewritten by it must hash to these.
const (
	version1AnnouncedSrc = "cb1be042d458ec192956b2ce1053fd90b6eb195d25586b315745ce7e935fc955"
	version1AnnouncedDst = "aa4a852289bba63aec91e5cd9394558856ce00f4f9b4770c7fd073a1caf0d06b"
	version1ByNameSrc    = "938c2661f911d0382430d11339e6cb74b59d60ec86f843fec3c2718558df332a"
)

// asVersion2 rewrites a golden source stream the way protocol version 2 wrote
// it. The hello gets version 2; helloLen is its length, root included. Every
// range frame's count byte becomes a u32 count, except in a one-page frame,
// which becomes the per-page frame of its kind: tag 4, 5, 9 or 10, then the
// start as the page number and the rest of the frame as it stands. Round ends
// and the done pass through; any other tag fails the test.
func asVersion2(t *testing.T, stream []byte, helloLen int) []byte {
	t.Helper()
	out := append([]byte(nil), stream[:helloLen]...)
	binary.LittleEndian.PutUint16(out[1:3], 2)
	perPage := map[msgType]byte{msgRangeSum: 4, msgRangeFull: 5, msgRangeFullZ: 9, msgRangeDelta: 10}
	for rest := stream[helloLen:]; len(rest) > 0; {
		tag := msgType(rest[0])
		switch tag {
		case msgRoundEnd:
			out, rest = append(out, rest[:RoundEndMsgBytes]...), rest[RoundEndMsgBytes:]
			continue
		case msgDone:
			out, rest = append(out, rest...), nil
			continue
		case msgRangeSum, msgRangeFull, msgRangeFullZ, msgRangeDelta:
		default:
			t.Fatalf("unexpected %v in the source stream", tag)
		}
		count := int(rest[9]) + 1
		size := RangeSumMsgBytes(count)
		switch tag {
		case msgRangeFull:
			size = RangeFullMsgBytes(count)
		case msgRangeFullZ, msgRangeDelta:
			payload := 0
			for i := 0; i < count; i++ {
				meta := rest[RangeHeaderBytes+i*(checksum.Size+4):]
				payload += int(binary.LittleEndian.Uint32(meta[checksum.Size:]))
			}
			size = RangeVarMsgBytes(count, payload)
		}
		frame, body := rest[:size], rest[RangeHeaderBytes:size]
		if count == 1 {
			out = append(append(out, perPage[tag]), frame[1:9]...)
		} else {
			out = binary.LittleEndian.AppendUint32(append(out, frame[:9]...), uint32(count))
		}
		out, rest = append(out, body...), rest[size:]
	}
	return out
}

// asVersion1 rewrites a golden conversation the way protocol version 1 wrote
// it. The source's hello gets version 1 and flag bits 3 and 4 (the compact
// announcement and range frames offered); helloLen is its length through the
// flags byte. The hello-ack gets flag bits 2 and 4 (both accepted), and an
// announcement, which must be tag 3 and EncodedSize(n) bytes for n sums, is
// re-encoded as the compact one under tag 11.
func asVersion1(t *testing.T, stream, reply []byte, helloLen int) (v1Stream, v1Reply []byte) {
	t.Helper()
	v1Stream = append([]byte(nil), stream...)
	binary.LittleEndian.PutUint16(v1Stream[1:3], 1)
	v1Stream[helloLen-1] |= 8 | 16

	v1Reply = append([]byte(nil), reply[:HelloAckMsgBytes]...)
	v1Reply[1] |= 4 | 16
	rest := reply[HelloAckMsgBytes:]
	if msgType(rest[0]) == msgHashAnnounce {
		r := bytes.NewReader(rest[1:])
		set, err := checksum.DecodeSet(r)
		if err != nil {
			t.Fatalf("reply's announcement: %v", err)
		}
		if n := len(rest) - r.Len(); n != AnnounceMsgBytes(set.Len()) {
			t.Fatalf("announcement of %d sums is %d bytes, want %d", set.Len(), n, AnnounceMsgBytes(set.Len()))
		}
		rest = rest[AnnounceMsgBytes(set.Len()):]
		v1Reply = append(v1Reply, 11)
		var compact bytes.Buffer
		if _, err := checksum.EncodeSetCompact(&compact, set); err != nil {
			t.Fatal(err)
		}
		v1Reply = append(v1Reply, compact.Bytes()...)
	}
	return v1Stream, append(v1Reply, rest...)
}

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
// the wire. With named set the source offers the checkpoint by its manifest
// root, under the store's key algorithm (the root is a name for those keys).
func goldenExchange(t *testing.T, onEvent EventFunc, named bool) (fromSrc, fromDst []byte, _ Metrics, _ *vm.VM) {
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
		Recycle:   true,
		Compress:  true,
		DeltaBase: base,
		Pause:     func() { goldenPause(src) },
		OnEvent:   onEvent,
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
	stream, reply, gm, _ := goldenExchange(t, func(Event) { events.Add(1) }, false)
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
	if want := HelloAckMsgBytes + 1; len(reply) <= want || reply[1] != 1|2 || reply[want-1] != byte(msgHashAnnounce) {
		t.Fatalf("reply opens % x, want a hello-ack with OK and have-checkpoint, then the announcement", reply[:min(len(reply), want)])
	}
	v2Stream := asVersion2(t, stream, HelloMsgBytes(len("vm0")))
	checkGolden(t, "source stream as version 2", v2Stream, version2AnnouncedSrc)
	v1Stream, v1Reply := asVersion1(t, v2Stream, reply, HelloMsgBytes(len("vm0")))
	checkGolden(t, "source stream as version 1", v1Stream, version1AnnouncedSrc)
	checkGolden(t, "destination reply as version 1", v1Reply, version1AnnouncedDst)
}

// TestGoldenStreamByName pins the conversation of a migration matched by
// name, and explains it against the announced golden one. The source's stream
// is the announced stream with one difference — its hello sets flag bit 1 and
// carries the 32-byte manifest root after the flags; round one and everything
// after it is byte for byte the announced run's (the source probes its own
// key list, the same set the announcement would have delivered). The
// destination's whole side of the conversation is five bytes: a hello-ack
// with the OK, have-checkpoint and manifest-match bits and an empty reason,
// then the final ack — no announcement. Version 1 set its two capability
// acceptances there too.
func TestGoldenStreamByName(t *testing.T) {
	golden, _, gm, src := goldenExchange(t, nil, false)
	helloLen := HelloMsgBytes(len(src.Name()))
	root := mirrorOf(t, goldenStore(t), "vm0").Root
	stream, reply, sm, _ := goldenExchange(t, nil, true)
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
	if want := []byte{byte(msgHelloAck), 1 | 2 | 32, 0, 0, byte(msgAck)}; !bytes.Equal(reply, want) {
		t.Errorf("destination sent % x, want % x", reply, want)
	}
	if sm.AnnounceBytes != 0 || sm.PagesSum != gm.PagesSum || sm.PagesFull != gm.PagesFull ||
		sm.PagesDelta != gm.PagesDelta || sm.PageFrames != gm.PageFrames {
		t.Errorf("metrics diverge from the announced run: got %+v want %+v", sm, gm)
	}
	checkGolden(t, "source stream", stream, goldenByNameSrc)
	checkGolden(t, "destination reply", reply, goldenByNameDst)
	v2Stream := asVersion2(t, stream, helloLen+len(root))
	checkGolden(t, "source stream as version 2", v2Stream, version2ByNameSrc)
	v1Stream, _ := asVersion1(t, v2Stream, reply, helloLen)
	checkGolden(t, "source stream as version 1", v1Stream, version1ByNameSrc)
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
