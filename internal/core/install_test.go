package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
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
// rewrite its pages arrived — full (compressed) pages, which a late install
// would bury, and deltas, which need the span as their base — with the
// announcement and with a matched manifest root.
func TestBackgroundInstallWireWins(t *testing.T) {
	const pages = 4 * spanPages
	const hold = 150 * time.Millisecond
	for _, mode := range []string{"compress", "delta"} {
		for _, named := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/%s/named=%v", engineSubtest, mode, named), func(t *testing.T) {
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
				// Rewrite pages at the head, middle and tail of every span,
				// so whichever span the held read belongs to has wire content.
				rng := rand.New(rand.NewSource(0))
				buf := make([]byte, vm.PageSize)
				for span := 0; span < pages/spanPages; span++ {
					for _, off := range []int{0, 1, 100, spanPages - 1} {
						p := span*spanPages + off
						if mode == "delta" {
							src.ReadPage(p, buf)
							rng.Read(buf[:48])
						} else {
							for i := range buf {
								buf[i] = byte(p + i%16)
							}
						}
						src.WritePage(p, buf)
					}
				}
				sopts := SourceOptions{Recycle: true, Compress: mode == "compress"}
				if named {
					sopts.Mirror = mirrorOf(t, mirror, "vm0")
				}
				if mode == "delta" {
					base, err := mirror.Restore("vm0", checksum.Default, nil)
					if err != nil {
						t.Fatal(err)
					}
					defer base.Close()
					sopts.DeltaBase = base
				}
				// One read per span (the save wrote the pages back to back);
				// the third to start is the one held.
				inj.Arm(faultfs.Fault{Op: faultfs.OpReadAt, Path: ".seg", After: 2, Latency: hold})

				dst := newVM(t, "vm0", pages, 2)
				begin := time.Now()
				sm, dres := migrate(t, src, dst, sopts,
					DestOptions{Store: store})
				if took := time.Since(begin); took < hold || len(inj.Shots()) != 1 {
					t.Fatalf("migration took %v with %d held reads; the merge did not wait for the span", took, len(inj.Shots()))
				}
				if !src.MemEqual(dst) {
					t.Fatalf("memory differs at page %d: checkpoint content landed on wire content, or a delta had no base",
						src.FirstDifference(dst))
				}
				checkTrackedResult(t, dst, dres)
				if (dres.Metrics.AnnounceBytes == 0) != named {
					t.Errorf("named=%v but the destination announced %d bytes", named, dres.Metrics.AnnounceBytes)
				}
				if mode == "delta" && sm.PagesDelta == 0 || mode == "compress" && sm.PagesCompressed == 0 {
					t.Errorf("mode %s not exercised: %+v", mode, sm)
				}
				if dres.Metrics.PagesReusedInPlace != pages-sm.PagesFull-sm.PagesDelta {
					t.Errorf("reused %d pages in place, want %d", dres.Metrics.PagesReusedInPlace, pages-sm.PagesFull-sm.PagesDelta)
				}
			})
		}
	}
}

// handSource is the source end of a migration driven frame by frame.
type handSource struct {
	conn net.Conn
	w    *bufio.Writer
	r    *bufio.Reader
}

// dialDest starts MigrateDest on one end of a pipe and performs the hello
// exchange on the other, offering the store's own entry by name (so the
// destination matches it and announces nothing). The destination's result
// arrives on the returned channel.
func dialDest(t *testing.T, ctx context.Context, store *checkpoint.Store, dst *vm.VM) (*handSource, chan error) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	done := make(chan error, 1)
	go func() {
		_, err := MigrateDest(ctx, b, dst, DestOptions{Store: store})
		done <- err
	}()
	hs := &handSource{conn: a, w: bufio.NewWriter(a), r: bufio.NewReader(a)}
	m := mirrorOf(t, store, dst.Name())
	if err := writeHello(hs.w, hello{Version: ProtocolVersion, VMName: dst.Name(), PageSize: vm.PageSize,
		PageCount: uint64(dst.NumPages()), Alg: uint8(checksum.Default), Recycle: true, HasRoot: true, Root: m.Root}); err != nil {
		t.Fatal(err)
	}
	if err := hs.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if tag, err := readMsgType(hs.r); err != nil || tag != msgHelloAck {
		t.Fatalf("tag=%v err=%v", tag, err)
	}
	if ack, err := readHelloAck(hs.r); err != nil || !ack.OK || !ack.ManifestMatch {
		t.Fatalf("ack=%+v err=%v", ack, err)
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
	hs, done := dialDest(t, context.Background(), store, dst)

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
	if err := <-done; err != nil {
		t.Fatal(err)
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
	hs, done := dialDest(t, ctx, store, dst)
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
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
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
