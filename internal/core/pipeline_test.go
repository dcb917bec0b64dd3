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

// fillGolden writes the pre-checkpoint state: patterned pages, random pages,
// and a tail of zero pages — all deterministic, so every call reconstructs
// the identical guest.
func fillGolden(src *vm.VM) {
	rng := rand.New(rand.NewSource(1234))
	buf := make([]byte, vm.PageSize)
	for i := 0; i < 240; i++ { // low-entropy patterns
		for j := range buf {
			buf[j] = byte((j % 32) * (i + 1))
		}
		src.WritePage(i, buf)
	}
	for i := 240; i < 480; i++ { // high-entropy
		rng.Read(buf)
		src.WritePage(i, buf)
	}
	// 480..599 stay zero.
}

// mutateGolden diverges the guest from its checkpoint: small in-place edits,
// full rewrites with random, patterned and half-zero content, everything
// else left matching (checksum-eliminated).
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
	for i := 360; i < 420; i++ { // patterned rewrites
		for j := range buf {
			buf[j] = byte((j % 16) * (i + 3))
		}
		src.WritePage(i, buf)
	}
	for i := 420; i < 440; i++ { // half random, half zero
		rng.Read(buf[:vm.PageSize/2])
		for j := vm.PageSize / 2; j < vm.PageSize; j++ {
			buf[j] = 0
		}
		src.WritePage(i, buf)
	}
}

// goldenPause generates the round-2 (stop-and-copy) traffic: one page whose
// new content already sits in the destination checkpoint (iterative-round
// checksum elimination), one genuinely new random page, one patterned page.
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
	goldenAnnouncedSrc = "a9b3e19da3cdd37e75eb77c1a48afa265b83f5ee35b6e4cbdd59bbf9099f21c2"
	goldenAnnouncedDst = "3ab19b39007aabe73901acf23fb4741ba8d685eabd676e14a78ee960e90e75f2"
	goldenByNameSrc    = "6a189b0f74f471c2c36b660743971b037c4ccf7ba91fc495f20eab96e0159544"
	goldenByNameDst    = "42a15d70066c15343066f26951fea20f0fb75f1e3d2e889e0887346a135ccf4d"
)

// The same source streams as protocol version 4 wrote them, recorded by a
// version-4 source with its compression and delta options off. Version 5 only
// retired those encodings, so its streams differ from version 4's in the
// hello's version field alone: each of them with that field set to 4
// (asVersion) must hash to these. The destination's side carries no version
// and no frame version 5 changed: its digests are version 4's.
const (
	version4AnnouncedSrc = "12babd971cae1f5c76a64aa0f7a48a7b434e9f3eea943ddc20325684f337a446"
	version4ByNameSrc    = "18552f3f30afd3851ba81264aeafc7cacdda01afc37ff1cf9f28e23f892eac3b"
)

// The destination's reply as protocol version 1 sent it, both capabilities
// negotiated. Version 2 moved its bytes only where asVersion1 puts them back,
// so the reply rewritten by it must hash to this.
const version1AnnouncedDst = "aa4a852289bba63aec91e5cd9394558856ce00f4f9b4770c7fd073a1caf0d06b"

// asVersion returns a golden source stream under a hello of the given version.
func asVersion(stream []byte, version uint16) []byte {
	return append(binary.LittleEndian.AppendUint16([]byte{stream[0]}, version), stream[3:]...)
}

// rangeFrameSize reports the length of the range frame at the head of rest.
func rangeFrameSize(rest []byte) int {
	count := int(rest[9]) + 1
	if msgType(rest[0]) == msgRangeFull {
		return RangeFullMsgBytes(count)
	}
	return RangeSumMsgBytes(count)
}

// withoutKept rewrites a golden source stream's frames, everything after the
// hello, the way a source matched by name sends them: round one leaves out
// every page whose checksum is keys' at its position, so each of its
// range-sum frames splits into the runs between the pages left out. Later
// rounds pass through, as do the round ends and the done; any other tag fails
// the test.
func withoutKept(t *testing.T, frames []byte, keys []checksum.Sum) []byte {
	t.Helper()
	var out bytes.Buffer
	roundOne := true
	for rest := frames; len(rest) > 0; {
		tag := msgType(rest[0])
		switch tag {
		case msgRoundEnd:
			roundOne = false
			out.Write(rest[:RoundEndMsgBytes])
			rest = rest[RoundEndMsgBytes:]
			continue
		case msgDone:
			out.Write(rest)
			rest = nil
			continue
		case msgRangeSum, msgRangeFull:
		default:
			t.Fatalf("unexpected %v in the source stream", tag)
		}
		frame := rest[:rangeFrameSize(rest)]
		rest = rest[len(frame):]
		if !roundOne || tag != msgRangeSum {
			out.Write(frame)
			continue
		}
		start, count := binary.LittleEndian.Uint64(frame[1:9]), int(frame[9])+1
		var run []checksum.Sum
		flush := func(end uint64) {
			if len(run) == 0 {
				return
			}
			if err := writeRangeHeader(&out, msgRangeSum, end-uint64(len(run)), len(run)); err != nil {
				t.Fatal(err)
			}
			if err := writeRangeSums(&out, run); err != nil {
				t.Fatal(err)
			}
			run = run[:0]
		}
		for i := 0; i < count; i++ {
			var sum checksum.Sum
			copy(sum[:], frame[RangeHeaderBytes+i*checksum.Size:])
			if p := start + uint64(i); sum == keys[p] {
				flush(p)
				continue
			}
			run = append(run, sum)
		}
		flush(start + uint64(count))
	}
	return out.Bytes()
}

// asVersion1 rewrites a golden destination reply the way protocol version 1
// wrote it. The hello-ack gets flag bits 2 and 4 (the compact announcement
// and range frames accepted), and an announcement, which must be tag 3 and
// EncodedSize(n) bytes for n sums, is re-encoded as the compact one under
// tag 11.
func asVersion1(t *testing.T, reply []byte) []byte {
	t.Helper()
	v1Reply := append([]byte(nil), reply[:HelloAckMsgBytes]...)
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
	return append(v1Reply, rest...)
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

	dst := newVM(t, "vm0", goldenPages, 1000)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rc, rcDst := &recordConn{Conn: a}, &recordConn{Conn: b}
	sopts := SourceOptions{
		Recycle: true,
		Pause:   func() { goldenPause(src) },
		OnEvent: onEvent,
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

// TestGoldenStreamEquivalence pins the announced conversation — full pages,
// checksum elimination, range frames and a second round all active —
// to its recorded digests in both directions. The run has an event hook on
// both ends, so equality also proves observability is about the stream,
// never in it.
func TestGoldenStreamEquivalence(t *testing.T) {
	var events atomic.Int64
	stream, reply, gm, _ := goldenExchange(t, func(Event) { events.Add(1) }, false)
	if events.Load() == 0 {
		t.Fatal("no events observed")
	}
	// The scenario must actually exercise both page encodings.
	if gm.PagesSum == 0 || gm.PagesFull == 0 {
		t.Fatalf("golden scenario too narrow: %+v", gm)
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
	if gm.PageFrames >= gm.PagesSum+gm.PagesFull {
		t.Fatalf("PageFrames = %d not below page count %d; nothing coalesced",
			gm.PageFrames, gm.PagesSum+gm.PagesFull)
	}
	checkGolden(t, "source stream", stream, goldenAnnouncedSrc)
	checkGolden(t, "destination reply", reply, goldenAnnouncedDst)
	if want := HelloAckMsgBytes + 1; len(reply) <= want || reply[1] != 1|2 || reply[want-1] != byte(msgHashAnnounce) {
		t.Fatalf("reply opens % x, want a hello-ack with OK and have-checkpoint, then the announcement", reply[:min(len(reply), want)])
	}
	checkGolden(t, "source stream as version 4", asVersion(stream, 4), version4AnnouncedSrc)
	checkGolden(t, "destination reply as version 1", asVersion1(t, reply), version1AnnouncedDst)
}

// TestGoldenStreamByName pins the conversation of a migration matched by
// name, and explains it against the announced golden one. The source's stream
// is the announced stream with two differences: its hello sets flag bit 1 and
// carries the 32-byte manifest root after the flags, and round one leaves out
// every page whose checksum is still the named checkpoint's key at its
// position — the announced run's frames with those pages dropped and their
// range-sum runs re-split (withoutKept). The source guest never migrated, so
// its digest table is empty and every page it leaves out was hashed first:
// the omission follows content, not the table. Round two and everything after
// it is byte for byte the announced run's. The destination's whole side of the
// conversation is five bytes: a hello-ack with the OK, have-checkpoint and
// manifest-match bits and an empty reason, then the final ack — no
// announcement. Under a version-4 hello the stream hashes to what version 4
// recorded.
func TestGoldenStreamByName(t *testing.T) {
	golden, _, gm, src := goldenExchange(t, nil, false)
	helloLen := HelloMsgBytes(len(src.Name()))
	mirror := mirrorOf(t, goldenStore(t), "vm0")
	root := mirror.Root
	stream, reply, sm, _ := goldenExchange(t, nil, true)
	wantHello := append([]byte(nil), golden[:helloLen]...)
	wantHello[helloLen-1] |= 2
	if !bytes.Equal(stream[:helloLen], wantHello) {
		t.Fatalf("hello % x, want % x", stream[:helloLen], wantHello)
	}
	if !bytes.Equal(stream[helloLen:helloLen+len(root)], root[:]) {
		t.Errorf("hello carries root % x, want % x", stream[helloLen:helloLen+len(root)], root)
	}
	if want := withoutKept(t, golden[helloLen:], mirror.Keys); !bytes.Equal(stream[helloLen+len(root):], want) {
		t.Errorf("stream after the hello differs from the announced run's without the kept pages (lens %d vs %d)",
			len(stream)-helloLen-len(root), len(want))
	}
	if want := []byte{byte(msgHelloAck), 1 | 2 | 32, 0, 0, byte(msgAck)}; !bytes.Equal(reply, want) {
		t.Errorf("destination sent % x, want % x", reply, want)
	}
	if sm.AnnounceBytes != 0 || sm.PagesKept == 0 || sm.PagesSum+sm.PagesKept != gm.PagesSum ||
		sm.PagesFull != gm.PagesFull {
		t.Errorf("metrics diverge from the announced run: got %+v want %+v, its checksum pages kept or sent", sm, gm)
	}
	checkGolden(t, "source stream", stream, goldenByNameSrc)
	checkGolden(t, "destination reply", reply, goldenByNameDst)
	checkGolden(t, "source stream as version 4", asVersion(stream, 4), version4ByNameSrc)
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
