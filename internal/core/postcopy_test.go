package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

func postcopy(t *testing.T, src, dst *vm.VM, sopts PostCopySourceOptions, dopts PostCopyDestOptions) (PostCopyMetrics, PostCopyDestResult) {
	t.Helper()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	return postcopyOver(t, a, b, src, dst, sopts, dopts)
}

// postcopyOver runs a post-copy migration with the source on a and the
// destination on b.
func postcopyOver(t *testing.T, a, b io.ReadWriter, src, dst *vm.VM, sopts PostCopySourceOptions, dopts PostCopyDestOptions) (PostCopyMetrics, PostCopyDestResult) {
	t.Helper()
	var (
		wg   sync.WaitGroup
		sm   PostCopyMetrics
		serr error
		dres PostCopyDestResult
		derr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		sm, serr = PostCopySource(context.Background(), a, src, sopts)
	}()
	go func() {
		defer wg.Done()
		dres, derr = PostCopyDest(context.Background(), b, dst, dopts)
	}()
	wg.Wait()
	if serr != nil {
		t.Fatalf("source: %v", serr)
	}
	if derr != nil {
		t.Fatalf("destination: %v", derr)
	}
	return sm, dres
}

func TestPostCopyNoCheckpoint(t *testing.T) {
	src := newVM(t, "vm0", 32, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 32, 2)
	var missingAtResume int
	sm, dres := postcopy(t, src, dst,
		PostCopySourceOptions{},
		PostCopyDestOptions{OnResume: func(n int) { missingAtResume = n }})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if missingAtResume != 32 {
		t.Errorf("missing at resume = %d, want all 32 (no checkpoint)", missingAtResume)
	}
	if sm.PagesRequested != 32 || dres.Metrics.PagesRequested != 32 {
		t.Errorf("requested = %d/%d, want 32", sm.PagesRequested, dres.Metrics.PagesRequested)
	}
	if dres.UsedCheckpoint {
		t.Error("phantom checkpoint")
	}
}

func TestPostCopyWithCheckpoint(t *testing.T) {
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	src.TouchRandomPages(6)

	dst := newVM(t, "vm0", 64, 2)
	var missingAtResume int
	sm, dres := postcopy(t, src, dst,
		PostCopySourceOptions{},
		PostCopyDestOptions{Store: store, OnResume: func(n int) { missingAtResume = n }})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if !dres.UsedCheckpoint {
		t.Fatal("checkpoint unused")
	}
	// At most 6 pages changed (touches can repeat a page).
	if missingAtResume > 6 || missingAtResume == 0 {
		t.Errorf("missing at resume = %d, want 1..6", missingAtResume)
	}
	if sm.PagesRequested != missingAtResume {
		t.Errorf("requested %d, missing %d", sm.PagesRequested, missingAtResume)
	}
	if dres.Metrics.PagesReusedInPlace < 58 {
		t.Errorf("reused in place = %d, want >= 58", dres.Metrics.PagesReusedInPlace)
	}
	// Wire traffic: manifest (64×16 B) plus ~6 pages, far below 256 KiB.
	if sm.BytesSent > 64*1024 {
		t.Errorf("BytesSent = %d, want far below memory size", sm.BytesSent)
	}
}

func TestPostCopyMovedContentFromDisk(t *testing.T) {
	// Swapped frames: nothing needs the network, the checkpoint index
	// resolves both frames from disk.
	src := newVM(t, "vm0", 8, 1)
	if err := src.FillRandom(1); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	a := make([]byte, vm.PageSize)
	b := make([]byte, vm.PageSize)
	src.ReadPage(0, a)
	src.ReadPage(1, b)
	src.WritePage(0, b)
	src.WritePage(1, a)

	dst := newVM(t, "vm0", 8, 2)
	sm, dres := postcopy(t, src, dst,
		PostCopySourceOptions{},
		PostCopyDestOptions{Store: store})
	if !src.MemEqual(dst) {
		t.Fatal("memory differs")
	}
	if sm.PagesRequested != 0 {
		t.Errorf("requested %d pages over the network, want 0", sm.PagesRequested)
	}
	if dres.Metrics.PagesReusedFromDisk != 2 {
		t.Errorf("reused from disk = %d, want 2", dres.Metrics.PagesReusedFromDisk)
	}
}

func TestPostCopyResumeBeforeCompletion(t *testing.T) {
	// The resume callback must fire before the fetch phase finishes:
	// ResumeDelay strictly below total duration when pages are missing.
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 64, 2)
	resumed := false
	_, dres := postcopy(t, src, dst,
		PostCopySourceOptions{},
		PostCopyDestOptions{OnResume: func(n int) {
			resumed = true
			if n == 0 {
				t.Error("no pages missing without a checkpoint?")
			}
		}})
	if !resumed {
		t.Fatal("OnResume never fired")
	}
	if dres.Metrics.ResumeDelay >= dres.Metrics.Duration {
		t.Errorf("ResumeDelay %v not below total %v", dres.Metrics.ResumeDelay, dres.Metrics.Duration)
	}
}

func TestPostCopyRejectsMismatchedVM(t *testing.T) {
	src := newVM(t, "vm0", 8, 1)
	dst := newVM(t, "other", 8, 2)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	var serr, derr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, serr = PostCopySource(context.Background(), a, src, PostCopySourceOptions{})
	}()
	go func() { defer wg.Done(); _, derr = PostCopyDest(context.Background(), b, dst, PostCopyDestOptions{}) }()
	wg.Wait()
	if !errors.Is(serr, ErrRejected) || !errors.Is(derr, ErrRejected) {
		t.Errorf("source=%v dest=%v, want ErrRejected on both", serr, derr)
	}
}

// TestPostCopyVsPreCopyResumeLatency pins the post-copy value proposition:
// with a fresh checkpoint, the destination resumes after the manifest
// exchange — far less data than pre-copy needs before its hand-over.
func TestPostCopyVsPreCopyResumeLatency(t *testing.T) {
	src := newVM(t, "vm0", 256, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	src.TouchRandomPages(8)

	dst := newVM(t, "vm0", 256, 2)
	sm, _ := postcopy(t, src, dst,
		PostCopySourceOptions{},
		PostCopyDestOptions{Store: store})
	if !src.MemEqual(dst) {
		t.Fatal("memory differs")
	}
	// The manifest is 256×16 B = 4 KiB; even with requests the total wire
	// volume must be below a tenth of the 1 MiB memory.
	if sm.BytesSent > int64(src.MemBytes()/10) {
		t.Errorf("post-copy with checkpoint sent %d bytes", sm.BytesSent)
	}
}

// TestPostCopyRequiresRecycle: a post-copy hello without the recycle bit is a
// protocol violation. Post-copy resolves its manifest against the checkpoint by
// checksum, so it is a recycled migration by construction: the destination
// must neither open its checkpoint nor resolve a page for such a hello.
func TestPostCopyRequiresRecycle(t *testing.T) {
	src := newVM(t, "vm0", 8, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := writeHello(&stream, hello{Version: ProtocolVersion, VMName: "vm0", PageSize: vm.PageSize,
		PageCount: 8, Alg: uint8(checksum.Default), PostCopy: true}); err != nil {
		t.Fatal(err)
	}
	// The manifest such a source would send: every page by its sum.
	stream.WriteByte(byte(msgManifest))
	stream.Write(binary.LittleEndian.AppendUint64(nil, 8))
	for _, sum := range src.RangeSums(0, 8, checksum.Default, nil) {
		stream.Write(sum[:])
	}
	dst := newVM(t, "vm0", 8, 2)
	res, err := PostCopyDest(context.Background(), readWriter{&stream, io.Discard}, dst, PostCopyDestOptions{Store: store})
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("post-copy hello without recycling: err = %v, want ErrProtocol", err)
	}
	if res.UsedCheckpoint || res.Metrics.PagesReusedInPlace != 0 {
		t.Errorf("the destination resolved pages for a hello without recycling: %+v", res)
	}
}

// TestModeMismatchRefused: each destination engine refuses a hello asking for
// the other protocol with a hello-ack naming both modes, so the source fails
// as a rejection on the spot — not with an opaque merge error, and not by
// waiting out an idle timeout while both sides block on a read.
func TestModeMismatchRefused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		source func(ctx context.Context, conn net.Conn, v *vm.VM) error
		dest   func(ctx context.Context, conn net.Conn, v *vm.VM) error
		reason string
	}{
		{
			name: "post-copy-to-pre-copy",
			source: func(ctx context.Context, conn net.Conn, v *vm.VM) error {
				_, err := PostCopySource(ctx, conn, v, PostCopySourceOptions{})
				return err
			},
			dest: func(ctx context.Context, conn net.Conn, v *vm.VM) error {
				_, err := MigrateDest(ctx, conn, v, DestOptions{})
				return err
			},
			reason: "post-copy migration sent to a pre-copy destination",
		},
		{
			name: "pre-copy-to-post-copy",
			source: func(ctx context.Context, conn net.Conn, v *vm.VM) error {
				_, err := MigrateSource(ctx, conn, v, SourceOptions{Recycle: true})
				return err
			},
			dest: func(ctx context.Context, conn net.Conn, v *vm.VM) error {
				_, err := PostCopyDest(ctx, conn, v, PostCopyDestOptions{})
				return err
			},
			reason: "pre-copy migration sent to a post-copy destination",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			src, dst := newVM(t, "vm0", 8, 1), newVM(t, "vm0", 8, 2)
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			var wg sync.WaitGroup
			var serr, derr error
			wg.Add(2)
			go func() { defer wg.Done(); serr = tc.source(ctx, a, src) }()
			go func() { defer wg.Done(); derr = tc.dest(ctx, b, dst) }()
			wg.Wait()
			for side, err := range map[string]error{"source": serr, "destination": derr} {
				if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), tc.reason) {
					t.Errorf("%s: err = %v, want a rejection saying %q", side, err, tc.reason)
				}
			}
		})
	}
}
