package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vecycle/internal/core"
	"vecycle/internal/vm"
)

// TestStalledPeerTimesOut verifies that a peer which accepts the connection
// and then never drains it fails the migration with ErrIdleTimeout within
// the per-I/O budget, instead of blocking forever.
func TestStalledPeerTimesOut(t *testing.T) {
	src := newHost(t, "alpha")
	src.AddVM(newGuest(t, "vm0", 16))

	// The "peer": one end of an in-memory pipe nobody ever reads.
	var silent []net.Conn
	var mu sync.Mutex
	src.DialFunc = func(ctx context.Context, addr string) (io.ReadWriteCloser, error) {
		a, b := net.Pipe()
		mu.Lock()
		silent = append(silent, b)
		mu.Unlock()
		return a, nil
	}
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range silent {
			c.Close()
		}
	})

	src.IdleTimeout = 100 * time.Millisecond
	start := time.Now()
	_, err := src.MigrateTo(context.Background(), "stalled:1", "vm0", MigrateOptions{})
	if !errors.Is(err, core.ErrIdleTimeout) {
		t.Fatalf("MigrateTo = %v, want ErrIdleTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stalled migration held the caller for %v", elapsed)
	}
	if _, ok := src.VM("vm0"); !ok {
		t.Error("VM deregistered after a failed migration")
	}
}

// TestStalledPeerContextDeadline covers the other abort path: per-I/O
// deadlines disabled, the caller's context deadline must still cut the
// blocked migration loose.
func TestStalledPeerContextDeadline(t *testing.T) {
	src := newHost(t, "alpha")
	src.AddVM(newGuest(t, "vm0", 16))

	var silent net.Conn
	src.DialFunc = func(ctx context.Context, addr string) (io.ReadWriteCloser, error) {
		a, b := net.Pipe()
		silent = b
		return a, nil
	}
	t.Cleanup(func() {
		if silent != nil {
			silent.Close()
		}
	})

	src.IdleTimeout = -1 // rely on the context alone
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := src.MigrateTo(ctx, "stalled:1", "vm0", MigrateOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("MigrateTo = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("migration took %v to honor a 100ms context deadline", elapsed)
	}
}

// TestClosePromptWithWedgedHandler connects a client that sends a partial
// hello and then goes silent. Close must not wait out the idle timeout of
// the wedged handler.
func TestClosePromptWithWedgedHandler(t *testing.T) {
	h := newHost(t, "alpha")
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One valid hello tag byte, then silence: the handler blocks mid-frame.
	if _, err := conn.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the handler reach the blocked read

	done := make(chan struct{})
	go func() {
		h.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Close wedged behind a stalled handler")
	}
}

// TestConcurrentDuplicateArrival races two migrations of the same VM name
// into one host. Exactly one may land; the other must be rejected, not
// silently merged or double-registered.
func TestConcurrentDuplicateArrival(t *testing.T) {
	dst := newHost(t, "gamma")
	addr := listen(t, dst)

	sources := [2]*Host{newHost(t, "alpha"), newHost(t, "beta")}
	for i, h := range sources {
		v := newGuest(t, "dup-vm", 64)
		if err := v.FillRandom(0.9); err != nil {
			t.Fatal(err)
		}
		_ = i
		h.AddVM(v)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, h := range sources {
		wg.Add(1)
		go func(i int, h *Host) {
			defer wg.Done()
			_, errs[i] = h.MigrateTo(context.Background(), addr, "dup-vm", MigrateOptions{})
		}(i, h)
	}
	wg.Wait()

	var ok, rejected int
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, core.ErrRejected):
			rejected++
		default:
			t.Errorf("unexpected migration error: %v", err)
		}
	}
	if ok != 1 || rejected != 1 {
		t.Fatalf("got %d successes and %d rejections, want exactly 1 and 1 (errs: %v)", ok, rejected, errs)
	}
	// The source returns at the final ack; the destination registers the VM
	// only after its post-ack tracking pass, so give it a moment.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, found := dst.VM("dup-vm"); found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("winning migration did not register the VM")
		}
	}
}

// TestRetryStopsOnRejection: a rejection is terminal — the retry policy
// must not burn attempts (or connections) asking again.
func TestRetryStopsOnRejection(t *testing.T) {
	dst := newHost(t, "beta")
	dst.AddVM(newGuest(t, "vm0", 16)) // already resident: arrivals rejected
	addr := listen(t, dst)

	src := newHost(t, "alpha")
	src.AddVM(newGuest(t, "vm0", 16))

	var dials atomic.Int64
	src.DialFunc = func(ctx context.Context, addr string) (io.ReadWriteCloser, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}

	_, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{
		Retry: RetryPolicy{Attempts: 5},
	})
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("MigrateTo = %v, want ErrRejected", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("rejected migration dialed %d times, want 1", n)
	}
}

// TestRetryRecoversFromReset injects a mid-stream reset into the first
// attempt; the second attempt on a fresh connection must complete.
func TestRetryRecoversFromReset(t *testing.T) {
	dst := newHost(t, "beta")
	addr := listen(t, dst)
	arrived := make(chan struct{}, 1)
	dst.OnArrival = func(*vm.VM, core.DestResult) { arrived <- struct{}{} }

	src := newHost(t, "alpha")
	v := newGuest(t, "vm0", 64)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	src.AddVM(v)

	var dials atomic.Int64
	src.DialFunc = func(ctx context.Context, addr string) (io.ReadWriteCloser, error) {
		n := dials.Add(1)
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if n == 1 {
			// First attempt: cut the stream well into round one.
			return core.NewFaultConn(conn, core.FaultConfig{ResetAfterBytes: 20_000}), nil
		}
		return conn, nil
	}

	m, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{
		Retry: RetryPolicy{Attempts: 3},
	})
	if err != nil {
		t.Fatalf("MigrateTo with retry = %v", err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("migration dialed %d times, want 2 (reset + retry)", n)
	}
	if m.PagesFull == 0 {
		t.Error("successful attempt reported no page traffic")
	}
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("VM never registered at the destination")
	}
}

// TestMigrateOptionsPlumbing drives the engine knobs end-to-end: the round
// cap must hold on both sides.
func TestMigrateOptionsPlumbing(t *testing.T) {
	dst := newHost(t, "beta")
	addr := listen(t, dst)
	arrived := make(chan core.DestResult, 1)
	dst.OnArrival = func(_ *vm.VM, res core.DestResult) { arrived <- res }

	src := newHost(t, "alpha")
	src.AddVM(newGuest(t, "vm0", 64))

	m, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{
		MaxRounds:     2,
		StopThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds > 2 {
		t.Errorf("MaxRounds=2 ignored: %d rounds", m.Rounds)
	}
	select {
	case res := <-arrived:
		if res.Metrics.Rounds != m.Rounds {
			t.Errorf("destination merged %d rounds, source sent %d", res.Metrics.Rounds, m.Rounds)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("VM never arrived")
	}
}

// TestRetryableClassification pins the terminal/transient split the retry
// loop relies on.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{core.ErrRejected, false},
		{core.ErrProtocol, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{ErrNoSuchVM, false},
		{core.ErrIdleTimeout, true},
		{core.ErrInjectedReset, true},
		{core.ErrInjectedTornWrite, true},
		{fmt.Errorf("merge: %w", &core.MigrationError{Stage: core.StageRecycleRead, Fault: "eio", Err: syscall.EIO}), true},
		{io.ErrUnexpectedEOF, true},
		{errors.New("dial tcp: connection refused"), true},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
