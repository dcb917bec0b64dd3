package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// corruptConn flips one bit in the Nth byte that passes through Write.
type corruptConn struct {
	net.Conn
	target int64
	seen   int64
}

func (c *corruptConn) Write(p []byte) (int, error) {
	if c.seen <= c.target && c.target < c.seen+int64(len(p)) {
		// Copy so we do not mutate the caller's buffer.
		mut := make([]byte, len(p))
		copy(mut, p)
		mut[c.target-c.seen] ^= 0x01
		c.seen += int64(len(p))
		return c.Conn.Write(mut)
	}
	c.seen += int64(len(p))
	return c.Conn.Write(p)
}

func TestVerifyPayloadsCatchesCorruption(t *testing.T) {
	src := newVM(t, "vm0", 16, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 16, 2)

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	// Corrupt a byte deep inside the page stream (well past the hello).
	evil := &corruptConn{Conn: a, target: 10_000}

	var wg sync.WaitGroup
	var derr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		// The source may fail with a broken pipe once the destination
		// aborts; either way it must not report clean success with a
		// corrupted stream delivered.
		_, _ = MigrateSource(context.Background(), evil, src, SourceOptions{})
	}()
	go func() {
		defer wg.Done()
		_, derr = MigrateDest(context.Background(), b, dst, DestOptions{VerifyPayloads: true})
		// The destination aborted mid-stream: close its pipe end so the
		// still-writing source unblocks with a broken pipe.
		b.Close()
	}()
	wg.Wait()
	if !errors.Is(derr, ErrProtocol) {
		t.Errorf("destination error = %v, want ErrProtocol (checksum mismatch)", derr)
	}
}

func TestCorruptionWithoutVerifyIsSilent(t *testing.T) {
	// Documents the trade: without VerifyPayloads a flipped payload bit is
	// not detected by the protocol (as in QEMU itself) — the page simply
	// differs. This test pins that behaviour so a future change to default
	// verification is deliberate.
	src := newVM(t, "vm0", 16, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 16, 2)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	evil := &corruptConn{Conn: a, target: 10_000}

	var wg sync.WaitGroup
	var serr, derr error
	wg.Add(2)
	go func() { defer wg.Done(); _, serr = MigrateSource(context.Background(), evil, src, SourceOptions{}) }()
	go func() { defer wg.Done(); _, derr = MigrateDest(context.Background(), b, dst, DestOptions{}) }()
	wg.Wait()
	if serr != nil || derr != nil {
		t.Fatalf("migration failed: source=%v dest=%v", serr, derr)
	}
	if src.MemEqual(dst) {
		t.Error("corruption vanished — corruptConn did not hit the payload")
	}
}

// truncConn closes the stream after n bytes have been written.
type truncConn struct {
	net.Conn
	budget int64
}

func (c *truncConn) Write(p []byte) (int, error) {
	if c.budget <= 0 {
		return 0, io.ErrClosedPipe
	}
	if int64(len(p)) > c.budget {
		p = p[:c.budget]
	}
	n, err := c.Conn.Write(p)
	c.budget -= int64(n)
	if err == nil && c.budget <= 0 {
		c.Conn.Close()
		return n, io.ErrClosedPipe
	}
	return n, err
}

func TestTruncatedStreamFailsCleanly(t *testing.T) {
	for _, budget := range []int64{3, 40, 5_000, 30_000} {
		src := newVM(t, "vm0", 16, 1)
		if err := src.FillRandom(0.9); err != nil {
			t.Fatal(err)
		}
		dst := newVM(t, "vm0", 16, 2)
		a, b := net.Pipe()
		cut := &truncConn{Conn: a, budget: budget}

		var wg sync.WaitGroup
		var serr, derr error
		wg.Add(2)
		go func() { defer wg.Done(); _, serr = MigrateSource(context.Background(), cut, src, SourceOptions{}) }()
		go func() { defer wg.Done(); _, derr = MigrateDest(context.Background(), b, dst, DestOptions{}) }()
		wg.Wait()
		a.Close()
		b.Close()
		if serr == nil && derr == nil {
			t.Errorf("budget %d: both sides reported success on a truncated stream", budget)
		}
	}
}

func TestDestRejectsOutOfRangePage(t *testing.T) {
	dst := newVM(t, "vm0", 4, 1)
	var stream bytes.Buffer
	h := hello{
		Version:   ProtocolVersion,
		VMName:    "vm0",
		PageSize:  vm.PageSize,
		PageCount: 4,
		Alg:       uint8(checksum.Default),
	}
	if err := writeHello(&stream, h); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, vm.PageSize)
	if err := writeRangePage(&stream, 99, checksum.Default.Page(page), page); err != nil {
		t.Fatal(err)
	}
	_, err := MigrateDest(context.Background(), readWriter{&stream, io.Discard}, dst, DestOptions{})
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("err = %v, want ErrProtocol", err)
	}
}

func TestDestRejectsPageSumWithoutCheckpoint(t *testing.T) {
	dst := newVM(t, "vm0", 4, 1)
	var stream bytes.Buffer
	h := hello{
		Version:   ProtocolVersion,
		VMName:    "vm0",
		PageSize:  vm.PageSize,
		PageCount: 4,
		Alg:       uint8(checksum.Default),
		Recycle:   true,
	}
	if err := writeHello(&stream, h); err != nil {
		t.Fatal(err)
	}
	if err := writeRangeHeader(&stream, msgRangeSum, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := writeRangeSums(&stream, []checksum.Sum{checksum.Default.Page([]byte("x"))}); err != nil {
		t.Fatal(err)
	}
	_, err := MigrateDest(context.Background(), readWriter{&stream, io.Discard}, dst, DestOptions{})
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("err = %v, want ErrProtocol", err)
	}
}

func TestDestRejectsUnknownMessage(t *testing.T) {
	dst := newVM(t, "vm0", 4, 1)
	var stream bytes.Buffer
	h := hello{
		Version:   ProtocolVersion,
		VMName:    "vm0",
		PageSize:  vm.PageSize,
		PageCount: 4,
		Alg:       uint8(checksum.Default),
	}
	if err := writeHello(&stream, h); err != nil {
		t.Fatal(err)
	}
	stream.WriteByte(0xEE) // nonsense tag
	_, err := MigrateDest(context.Background(), readWriter{&stream, io.Discard}, dst, DestOptions{})
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("err = %v, want ErrProtocol", err)
	}
}

// TestDestRejectsRetiredPageTags: the per-page frames of version 2 — tags 4,
// 5, 9 and 10 — are reserved in version 3. A stream carrying one, well formed
// as version 2 wrote it and in a migration that could have used it (recycled,
// over a checkpoint), fails with ErrProtocol.
func TestDestRejectsRetiredPageTags(t *testing.T) {
	src := newVM(t, "vm0", 4, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, vm.PageSize)
	src.ReadPage(2, page)
	sum := checksum.Default.Page(page)
	for tag, body := range map[byte][]byte{
		4:  nil,                                            // page-sum
		5:  page,                                           // page-full
		9:  append([]byte{8, 0, 0, 0}, make([]byte, 8)...), // page-full-z
		10: append([]byte{8, 0, 0, 0}, make([]byte, 8)...), // page-delta
	} {
		var stream bytes.Buffer
		if err := writeHello(&stream, hello{Version: ProtocolVersion, VMName: "vm0", PageSize: vm.PageSize,
			PageCount: 4, Alg: uint8(checksum.Default), Recycle: true}); err != nil {
			t.Fatal(err)
		}
		stream.WriteByte(tag)
		var pageNo [8]byte
		pageNo[0] = 2
		stream.Write(pageNo[:])
		stream.Write(sum[:])
		stream.Write(body)
		if err := writeMsgType(&stream, msgDone); err != nil {
			t.Fatal(err)
		}
		dst := newVM(t, "vm0", 4, 2)
		_, err := MigrateDest(context.Background(), readWriter{&stream, io.Discard}, dst, DestOptions{Store: store})
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("tag %d: err = %v, want ErrProtocol", tag, err)
		}
	}
}

func TestAcceptRejectsNonHello(t *testing.T) {
	var stream bytes.Buffer
	stream.WriteByte(byte(msgAck))
	if _, err := Accept(context.Background(), readWriter{&stream, io.Discard}); !errors.Is(err, ErrProtocol) {
		t.Errorf("err = %v, want ErrProtocol", err)
	}
}

func TestCorruptCheckpointDegradesToFull(t *testing.T) {
	src := newVM(t, "vm0", 16, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	// Delete the pooled page segments behind the store's back: Restore must
	// fail and the destination must degrade rather than abort.
	segs, err := filepath.Glob(filepath.Join(store.Dir(), "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no pool segments on disk")
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
	dst := newVM(t, "vm0", 16, 2)
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true},
		DestOptions{Store: store, VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatal("memory differs after degraded migration")
	}
	if dres.UsedCheckpoint {
		t.Error("corrupt checkpoint reported as used")
	}
	if sm.PagesSum != 0 {
		t.Errorf("degraded migration sent %d checksum pages", sm.PagesSum)
	}
}

// readWriter joins separate reader and writer halves.
type readWriter struct {
	io.Reader
	io.Writer
}
