package core

import (
	"bytes"
	"context"
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

func TestDeadlineConnIdleTimeout(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := NewDeadlineConn(a, 50*time.Millisecond)

	done := make(chan error, 1)
	go func() {
		var buf [1]byte
		_, err := c.Read(buf[:]) // peer never writes
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrIdleTimeout) {
			t.Fatalf("Read error = %v, want ErrIdleTimeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Read did not time out")
	}
}

func TestDeadlineConnProgressDefersTimeout(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := NewDeadlineConn(a, 150*time.Millisecond)

	// The peer trickles bytes at a pace well inside the idle budget; the
	// connection must survive far past the budget measured from the start.
	go func() {
		for i := 0; i < 10; i++ {
			time.Sleep(50 * time.Millisecond)
			if _, err := b.Write([]byte{byte(i)}); err != nil {
				return
			}
		}
		b.Close()
	}()
	n, err := io.Copy(io.Discard, c)
	if n != 10 {
		t.Fatalf("read %d bytes before error %v, want 10", n, err)
	}
}

func TestDeadlineConnAbortUnblocksRead(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := NewDeadlineConn(a, time.Minute)

	cause := errors.New("operator says stop")
	go func() {
		time.Sleep(20 * time.Millisecond)
		c.Abort(cause)
	}()
	done := make(chan error, 1)
	go func() {
		var buf [1]byte
		_, err := c.Read(buf[:])
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, cause) {
			t.Fatalf("Read error = %v, want abort cause", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Abort did not unblock the read")
	}
	// Future operations fail immediately with the same cause.
	if _, err := c.Write([]byte{0}); !errors.Is(err, cause) {
		t.Fatalf("Write after abort = %v, want abort cause", err)
	}
}

func TestMigrateSourceContextCancel(t *testing.T) {
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	_ = b // silent peer: never reads, never answers

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := MigrateSource(ctx, NewDeadlineConn(a, time.Minute), src, SourceOptions{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("MigrateSource = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not abort the blocked migration")
	}
}

func TestMigrateSourceContextDeadline(t *testing.T) {
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	_ = b // silent peer

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := MigrateSource(ctx, NewDeadlineConn(a, time.Minute), src, SourceOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("MigrateSource = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("migration took %v to honor a 50ms deadline", elapsed)
	}
}

func TestAcceptContextCancel(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	_ = b // peer never sends a hello

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Accept(ctx, NewDeadlineConn(a, time.Minute))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Accept = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not abort the blocked accept")
	}
}

func TestOversizedNameHelloLeavesCleanStream(t *testing.T) {
	var stream bytes.Buffer
	bad := hello{
		Version:   ProtocolVersion,
		VMName:    strings.Repeat("x", maxNameLen+1),
		PageSize:  vm.PageSize,
		PageCount: 4,
		Alg:       uint8(checksum.Default),
	}
	if err := writeHello(&stream, bad); err == nil {
		t.Fatal("oversized VM name accepted")
	}
	// The failed write must not have emitted a partial frame: the stream is
	// still usable for a follow-up hello.
	if stream.Len() != 0 {
		t.Fatalf("failed hello left %d bytes on the stream", stream.Len())
	}
	good := bad
	good.VMName = "vm0"
	if err := writeHello(&stream, good); err != nil {
		t.Fatal(err)
	}
	tag, err := readMsgType(&stream)
	if err != nil || tag != msgHello {
		t.Fatalf("readMsgType = %v, %v", tag, err)
	}
	got, err := readHello(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if got.VMName != "vm0" || got.PageCount != 4 {
		t.Fatalf("hello round-trip = %+v", got)
	}
	if stream.Len() != 0 {
		t.Fatalf("%d trailing bytes after hello", stream.Len())
	}
}

func TestHelloAckReasonTruncated(t *testing.T) {
	// Rejection reasons can embed attacker- or filesystem-derived strings;
	// the writer must bound them instead of desyncing or ballooning the
	// frame. Pins the truncate-to-maxNameLen behaviour.
	var stream bytes.Buffer
	long := strings.Repeat("r", maxNameLen+500)
	if err := writeHelloAck(&stream, helloAck{OK: false, Reason: long}); err != nil {
		t.Fatal(err)
	}
	tag, err := readMsgType(&stream)
	if err != nil || tag != msgHelloAck {
		t.Fatalf("readMsgType = %v, %v", tag, err)
	}
	got, err := readHelloAck(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Reason) != maxNameLen || got.Reason != long[:maxNameLen] {
		t.Fatalf("reason len %d after round-trip, want %d", len(got.Reason), maxNameLen)
	}
	if stream.Len() != 0 {
		t.Fatalf("%d trailing bytes after hello-ack", stream.Len())
	}
}

func TestMigrationSurvivesShortReads(t *testing.T) {
	src := newVM(t, "vm0", 32, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 32, 2)

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	// Fragment every read on the destination: no io.ReadFull call may
	// assume a page arrives in one piece.
	short := NewFaultConn(b, FaultConfig{MaxReadChunk: 7})

	var wg sync.WaitGroup
	var serr, derr error
	wg.Add(2)
	go func() { defer wg.Done(); _, serr = MigrateSource(context.Background(), a, src, SourceOptions{}) }()
	go func() { defer wg.Done(); _, derr = MigrateDest(context.Background(), short, dst, DestOptions{}) }()
	wg.Wait()
	if serr != nil || derr != nil {
		t.Fatalf("migration failed: source=%v dest=%v", serr, derr)
	}
	if !src.MemEqual(dst) {
		t.Error("memory differs after short-read migration")
	}
}

func TestMigrationFailsCleanlyOnReset(t *testing.T) {
	src := newVM(t, "vm0", 32, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 32, 2)

	a, b := net.Pipe()
	// Cut the connection mid page-stream, past the hello exchange.
	cut := NewFaultConn(a, FaultConfig{ResetAfterBytes: 20_000})

	var wg sync.WaitGroup
	var serr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, serr = MigrateSource(context.Background(), cut, src, SourceOptions{})
		a.Close() // unblock the destination's pending read
	}()
	go func() {
		defer wg.Done()
		_, _ = MigrateDest(context.Background(), b, dst, DestOptions{})
		b.Close()
	}()
	wg.Wait()
	if !errors.Is(serr, ErrInjectedReset) {
		t.Fatalf("source error = %v, want ErrInjectedReset", serr)
	}
}

func TestFaultConnStallHonorsDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() { _, _ = io.Copy(io.Discard, b) }() // drain until the stall

	stall := NewFaultConn(a, FaultConfig{StallAfterBytes: 1000})
	c := NewDeadlineConn(stall, 100*time.Millisecond)

	buf := make([]byte, 4096)
	start := time.Now()
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		_, err = c.Write(buf)
	}
	if !errors.Is(err, ErrIdleTimeout) {
		t.Fatalf("stalled write error = %v, want ErrIdleTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled write held the caller for %v", elapsed)
	}
}

func TestPostCopyRequestsArePipelined(t *testing.T) {
	const pages = 700
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", pages, 2)

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	// Latency on the destination's writes makes every flush cost a round
	// trip, as on a real link; counting writes through the wrapper counts
	// flushes, since the 64 KiB protocol buffer holds a full request window.
	lat := NewFaultConn(b, FaultConfig{WriteLatency: 200 * time.Microsecond})

	var wg sync.WaitGroup
	var serr, derr error
	var res PostCopyDestResult
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, serr = PostCopySource(context.Background(), a, src, PostCopySourceOptions{})
	}()
	go func() {
		defer wg.Done()
		res, derr = PostCopyDest(context.Background(), lat, dst, PostCopyDestOptions{})
	}()
	wg.Wait()
	if serr != nil || derr != nil {
		t.Fatalf("post-copy failed: source=%v dest=%v", serr, derr)
	}
	if !src.MemEqual(dst) {
		t.Fatal("memory differs after post-copy")
	}
	missing := res.Metrics.PagesRequested
	if missing < requestWindow*2 {
		t.Fatalf("only %d pages were demand-fetched; test needs multiple windows", missing)
	}
	// One request flush per window plus a handful of control-message
	// flushes — versus one flush per page before pipelining.
	if got, limit := lat.WriteOps(), int64(missing/10); got > limit {
		t.Errorf("destination flushed %d times for %d fetched pages, want <= %d (pipelined windows)", got, missing, limit)
	}
}
