package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// The destination installs its checkpoint in the background, in 256-frame
// spans, while round one crosses the wire. These tests hold a span's read
// back with a faultfs latency rule so that wire frames for its pages are at
// the destination first, and check what the merge does about it.

const spanPages = 256 // checkpoint.restoreSpanPages

// slowStore returns a store whose segment reads go through inj.
func slowStore(t *testing.T, inj *faultfs.Injector) *checkpoint.Store {
	t.Helper()
	s, err := checkpoint.NewStoreFS(filepath.Join(t.TempDir(), "ckpts"), inj.FS(faultfs.OS))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBackgroundInstallWireWins: destination memory ≡ source memory at pause
// although one span of the checkpoint is read long after the frames that
// rewrite its pages arrived — full pages, which a late install would bury —
// with the announcement and with a matched manifest root.
func TestBackgroundInstallWireWins(t *testing.T) {
	const pages = 4 * spanPages
	const hold = 150 * time.Millisecond
	for _, named := range []bool{false, true} {
		t.Run(fmt.Sprintf("%s/full/named=%v", engineSubtest, named), func(t *testing.T) {
			inj := faultfs.NewInjector()
			store, mirror := slowStore(t, inj), newStore(t)
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(1.0); err != nil {
				t.Fatal(err)
			}
			for _, s := range []*checkpoint.Store{store, mirror} {
				if err := s.Save(src); err != nil {
					t.Fatal(err)
				}
			}
			// Rewrite pages at the head, middle and tail of every span, so
			// whichever span the held read belongs to has wire content.
			rng := rand.New(rand.NewSource(0))
			buf := make([]byte, vm.PageSize)
			for span := 0; span < pages/spanPages; span++ {
				for _, off := range []int{0, 1, 100, spanPages - 1} {
					rng.Read(buf)
					src.WritePage(span*spanPages+off, buf)
				}
			}
			sopts := SourceOptions{Recycle: true}
			if named {
				sopts.Mirror = mirrorOf(t, mirror, "vm0")
			}
			// One read per span (the save wrote the pages back to back); the
			// third to start is the one held.
			inj.Arm(faultfs.Fault{Op: faultfs.OpReadAt, Path: ".seg", After: 2, Latency: hold})

			dst := newVM(t, "vm0", pages, 2)
			begin := time.Now()
			sm, dres := migrate(t, src, dst, sopts, DestOptions{Store: store})
			if took := time.Since(begin); took < hold || len(inj.Shots()) != 1 {
				t.Fatalf("migration took %v with %d held reads; the merge did not wait for the span", took, len(inj.Shots()))
			}
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d: checkpoint content landed on wire content",
					src.FirstDifference(dst))
			}
			checkTrackedResult(t, dst, dres)
			if (dres.Metrics.AnnounceBytes == 0) != named {
				t.Errorf("named=%v but the destination announced %d bytes", named, dres.Metrics.AnnounceBytes)
			}
			if rewritten := 4 * pages / spanPages; sm.PagesFull != rewritten {
				t.Errorf("%d full pages crossed, want the %d rewritten", sm.PagesFull, rewritten)
			}
			// A named leg leaves the unchanged pages out of round one; an
			// announced one names each and the destination finds it in place.
			unchanged, kept := pages-sm.PagesFull, 0
			if named {
				unchanged, kept = 0, unchanged
			}
			if dres.Metrics.PagesReusedInPlace != unchanged || dres.Metrics.PagesKept != kept || sm.PagesKept != kept {
				t.Errorf("reused %d pages in place and kept %d (source kept %d), want %d and %d",
					dres.Metrics.PagesReusedInPlace, dres.Metrics.PagesKept, sm.PagesKept, unchanged, kept)
			}
		})
	}
}

// handSource is the source end of a migration driven frame by frame.
type handSource struct {
	conn net.Conn
	w    *bufio.Writer
	r    *bufio.Reader
}

// destOutcome is what MigrateDest returned.
type destOutcome struct {
	res DestResult
	err error
}

// dialDest starts MigrateDest on one end of a pipe and performs the hello
// exchange on the other. With a store the hello asks for recycling, and named
// offers the store's own entry by name (so the destination matches it and
// announces nothing); without, the announcement is read. Without a store the
// leg is cold. The destination's outcome arrives on the returned channel.
func dialDest(t *testing.T, ctx context.Context, store *checkpoint.Store, dst *vm.VM, named bool) (*handSource, chan destOutcome) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	done := make(chan destOutcome, 1)
	go func() {
		res, err := MigrateDest(ctx, b, dst, DestOptions{Store: store})
		done <- destOutcome{res, err}
	}()
	hs := &handSource{conn: a, w: bufio.NewWriter(a), r: bufio.NewReader(a)}
	h := hello{Version: ProtocolVersion, VMName: dst.Name(), PageSize: vm.PageSize,
		PageCount: uint64(dst.NumPages()), Alg: uint8(checksum.Default), Recycle: store != nil}
	if named {
		h.HasRoot, h.Root = true, mirrorOf(t, store, dst.Name()).Root
	}
	if err := writeHello(hs.w, h); err != nil {
		t.Fatal(err)
	}
	if err := hs.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if tag, err := readMsgType(hs.r); err != nil || tag != msgHelloAck {
		t.Fatalf("tag=%v err=%v", tag, err)
	}
	ack, err := readHelloAck(hs.r)
	if err != nil || !ack.OK || ack.ManifestMatch != named || ack.HaveCheckpoint != (store != nil) {
		t.Fatalf("ack=%+v err=%v", ack, err)
	}
	if store != nil && !named {
		if tag, err := readMsgType(hs.r); err != nil || tag != msgHashAnnounce {
			t.Fatalf("tag=%v err=%v, want the announcement", tag, err)
		}
		if _, err := readHashAnnounce(hs.r); err != nil {
			t.Fatal(err)
		}
	}
	return hs, done
}

// TestBackgroundInstallSparseRounds: a source that sends almost nothing in
// round one gives the merge no reason to wait for most spans. A round-two
// frame for a page whose span is still being read must wait all the same, and
// the final ack must wait for every span — the guest the source is told has
// arrived is the checkpoint plus the wire, not whatever was installed so far.
func TestBackgroundInstallSparseRounds(t *testing.T) {
	const pages = 4 * spanPages
	const hold = 150 * time.Millisecond
	t.Run(engineSubtest, func(t *testing.T) { sparseRounds(t, pages, hold) })
}

func sparseRounds(t *testing.T, pages int, hold time.Duration) {
	inj := faultfs.NewInjector()
	store := slowStore(t, inj)
	want := newVM(t, "vm0", pages, 1)
	if err := want.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(want); err != nil {
		t.Fatal(err)
	}
	// Every span's read is held, so none is installed when the frames arrive.
	inj.Arm(faultfs.Fault{Op: faultfs.OpReadAt, Path: ".seg", Times: -1, Latency: hold})
	dst := newVM(t, "vm0", pages, 2)
	begin := time.Now()
	hs, done := dialDest(t, context.Background(), store, dst, true)

	page := make([]byte, vm.PageSize)
	rand.New(rand.NewSource(3)).Read(page)
	const rewritten = 3*spanPages + 7
	want.WritePage(rewritten, page)
	steps := []error{
		writeRoundEnd(hs.w, 1, 1),
		writeRangePage(hs.w, rewritten, checksum.Default.Page(page), page),
		writeRoundEnd(hs.w, 2, 0),
		writeMsgType(hs.w, msgDone),
		hs.w.Flush(),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	if tag, err := readMsgType(hs.r); err != nil || tag != msgAck {
		t.Fatalf("final ack: tag=%v err=%v", tag, err)
	}
	if took := time.Since(begin); took < hold {
		t.Errorf("acknowledged after %v, before the held reads (%v) could finish", took, hold)
	}
	if out := <-done; out.err != nil {
		t.Fatal(out.err)
	}
	if !want.MemEqual(dst) {
		t.Fatalf("memory differs at page %d (rewritten page is %d)", want.FirstDifference(dst), rewritten)
	}
	checkDigestTable(t, dst)
}

// TestBackgroundInstallCancel: cancelling the migration while the install is
// in its first spans returns promptly, leaves no goroutine and no read behind
// (the files are closed only after the readers are gone), and costs the store
// nothing — the entry is still the complete one, not a salvage of the few
// spans that made it.
func TestBackgroundInstallCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	const spans = 16
	inj := faultfs.NewInjector()
	store := slowStore(t, inj)
	img := newVM(t, "vm0", spans*spanPages, 1)
	if err := img.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(img); err != nil {
		t.Fatal(err)
	}
	inj.Arm(faultfs.Fault{Op: faultfs.OpReadAt, Path: ".seg", Times: -1, Latency: 50 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dst := newVM(t, "vm0", spans*spanPages, 2)
	hs, done := dialDest(t, ctx, store, dst, true)
	// A full page so that there is progress a salvage would want to keep.
	page := make([]byte, vm.PageSize)
	if err := writeRangePage(hs.w, 0, checksum.Default.Page(page), page); err != nil {
		t.Fatal(err)
	}
	if err := hs.w.Flush(); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case out := <-done:
		if !errors.Is(out.err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", out.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("destination did not return promptly after the cancel")
	}
	reads := len(inj.Shots())
	if reads >= spans {
		t.Fatalf("all %d spans were read; nothing was cancelled", reads)
	}
	time.Sleep(120 * time.Millisecond) // more than two held reads
	if late := len(inj.Shots()) - reads; late != 0 {
		t.Errorf("%d segment reads started after the destination returned", late)
	}
	hs.conn.Close()
	waitGoroutines(t, base)
	if state, ok := store.State("vm0"); !ok || state != checkpoint.EntryComplete {
		t.Errorf("entry state after the cancelled attempt = %q (present=%v), want complete", state, ok)
	}
}

// ackConn is the destination's end of a migration: its first write is the
// hello-ack, and before passing it on it waits a little and counts the
// segment reads the store has started by then.
type ackConn struct {
	io.ReadWriter
	inj         *faultfs.Injector
	wrote       bool
	readsBefore int
}

func (c *ackConn) Write(p []byte) (int, error) {
	if !c.wrote {
		c.wrote = true
		// Time for a reader started before the ack to reach its first ReadAt.
		time.Sleep(30 * time.Millisecond)
		c.readsBefore = len(c.inj.Shots())
	}
	return c.ReadWriter.Write(p)
}

// TestBackgroundInstallAfterAck: on a return matched by name the destination
// reads no checkpoint page before its hello-ack is on the wire — the install's
// readers would otherwise compete with the ack for the CPU — and still ends
// with the source's memory.
func TestBackgroundInstallAfterAck(t *testing.T) {
	const pages = 4 * spanPages
	inj := faultfs.NewInjector()
	store, mirror := slowStore(t, inj), newStore(t)
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*checkpoint.Store{store, mirror} {
		if err := s.Save(src); err != nil {
			t.Fatal(err)
		}
	}
	src.TouchRandomPages(20)
	// Records the first segment read; a latency-only rule changes nothing else.
	inj.Arm(faultfs.Fault{Op: faultfs.OpReadAt, Path: ".seg", Latency: time.Microsecond})

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	conn := &ackConn{ReadWriter: b, inj: inj}
	dst := newVM(t, "vm0", pages, 2)
	sm, dres := migrateOver(t, a, conn, src, dst,
		SourceOptions{Recycle: true, Mirror: mirrorOf(t, mirror, "vm0")}, DestOptions{Store: store})
	if !conn.wrote || conn.readsBefore != 0 {
		t.Errorf("%d segment reads started before the hello-ack was written", conn.readsBefore)
	}
	if len(inj.Shots()) != 1 {
		t.Errorf("%d segment reads recorded, want the install's first", len(inj.Shots()))
	}
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if sm.PagesKept == 0 || dres.Metrics.PagesKept != sm.PagesKept {
		t.Errorf("source kept %d pages, destination %d; want the same nonzero count", sm.PagesKept, dres.Metrics.PagesKept)
	}
	checkTrackedResult(t, dst, dres)
}

// TestBootstrapPageCountMismatch: the VM's own entry has another page count
// than the arriving guest, so it cannot bootstrap it. That is found before the
// hello-ack, even when the source names the entry by its root: the ack does
// not match it, the entry is left in the store untouched, round one leaves
// nothing out, and the guest arrives whole — cold, since the entry's content
// is not the guest's (the union rung announces it all the same).
func TestBootstrapPageCountMismatch(t *testing.T) {
	const pages = 64
	store, mirror := newStore(t), newStore(t)
	old := newVM(t, "vm0", pages/2, 7)
	if err := old.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*checkpoint.Store{store, mirror} {
		if err := s.Save(old); err != nil {
			t.Fatal(err)
		}
	}
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	var hello string
	var degraded []string
	dst := newVM(t, "vm0", pages, 2)
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true, Mirror: mirrorOf(t, mirror, "vm0"), OnEvent: func(e Event) {
			if e.Kind == EventHello {
				hello = e.Detail
			}
		}},
		DestOptions{Store: store, OnEvent: func(e Event) {
			if e.Kind == EventDegraded {
				degraded = append(degraded, e.Detail)
			}
		}})
	if strings.Contains(hello, "manifest=match") {
		t.Errorf("ack matched an entry of another size: %q", hello)
	}
	if len(degraded) != 1 || !strings.HasPrefix(degraded[0], StageBootstrap+":") {
		t.Errorf("degradations %q, want one at the bootstrap", degraded)
	}
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if sm.PagesKept != 0 || sm.PagesFull != pages || dres.ResumedFromPartial {
		t.Errorf("source kept %d pages and sent %d full, want none kept and all %d full", sm.PagesKept, sm.PagesFull, pages)
	}
	if state, ok := store.State("vm0"); !ok || state != checkpoint.EntryComplete {
		t.Errorf("entry state %q (present=%v), want complete", state, ok)
	}
	checkTrackedResult(t, dst, dres)
}
