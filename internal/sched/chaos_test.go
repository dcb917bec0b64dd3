package sched

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/core"
)

// chaosDialer wires a deterministic fault schedule into a host's outbound
// connections: dial n gets a connection that resets after schedule[n-1]
// bytes written (a negative entry tears the stream at that offset instead
// — a clean prefix, then ErrInjectedTornWrite); dials past the schedule
// are clean. Between dials it waits
// for the destination's previous handler to finish (observed via OnError),
// so each retry sees the salvage state the prior failure left behind —
// without that barrier a fast retry races the destination's still-pending
// arrival reservation and is rejected as a duplicate.
type chaosDialer struct {
	t        *testing.T
	schedule []int64
	dials    atomic.Int64
	handled  *atomic.Int64
}

func (c *chaosDialer) dial(ctx context.Context, addr string) (io.ReadWriteCloser, error) {
	n := c.dials.Add(1)
	deadline := time.Now().Add(10 * time.Second)
	for c.handled.Load() < n-1 {
		if time.Now().After(deadline) {
			c.t.Errorf("destination never finished handling attempt %d", n-1)
			break
		}
		time.Sleep(time.Millisecond)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if int(n) <= len(c.schedule) {
		b := c.schedule[n-1]
		cfg := core.FaultConfig{ResetAfterBytes: b}
		if b < 0 {
			cfg = core.FaultConfig{TornWriteAfterBytes: -b}
		}
		return core.NewFaultConn(conn, cfg), nil
	}
	return conn, nil
}

// TestChaosKillEveryTurn is the chaos gate: one migration whose wire is
// killed at every protocol turn in sequence — inside the hello, right
// after it, during the announcement exchange, and at three points deep in
// round one — must converge through the retry chain, with each resumed
// attempt reusing at least as much salvaged progress as the one before and
// the final attempt resending strictly fewer full pages than a from-zero
// migration would.
func TestChaosKillEveryTurn(t *testing.T) {
	// Page-range frames coalesce up to 256 full pages (~1 MiB) per frame,
	// and a cut mid-frame installs nothing — so the guest spans several
	// frames and the round-one cuts fall at 1/2/4 complete frames to
	// exercise increasing salvage. The 2.4 MB cut is a torn write (the
	// stream dies mid-frame after a clean prefix) rather than a reset, so
	// the chaos gate covers both transport fault shapes.
	const pages = 2048
	dst := newHost(t, "beta")
	var handled atomic.Int64
	dst.OnError = func(error) { handled.Add(1) }
	addr := listen(t, dst)

	src := newHost(t, "alpha")
	t.Cleanup(func() { src.Close() })
	v := newGuest(t, "vm0", pages)
	if err := v.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	src.AddVM(v)

	cd := &chaosDialer{
		t:        t,
		schedule: []int64{10, 30, 5_000, 1_200_000, -2_400_000, 4_800_000},
		handled:  &handled,
	}
	src.DialFunc = cd.dial

	type outcome struct {
		m   core.Metrics
		err error
	}
	var attempts []outcome
	retryAtOnce(src)
	m, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{
		Recycle: true,
		Retry:   RetryPolicy{Attempts: len(cd.schedule) + 1},
		OnAttempt: func(attempt int, m core.Metrics, err error) {
			attempts = append(attempts, outcome{m, err})
		},
	})
	if err != nil {
		t.Fatalf("retry chain did not converge: %v (after %d attempts)", err, len(attempts))
	}
	if got, want := len(attempts), len(cd.schedule)+1; got != want {
		t.Fatalf("ran %d attempts, want %d", got, want)
	}
	for i, a := range attempts[:len(attempts)-1] {
		if a.err == nil {
			t.Fatalf("attempt %d survived its scheduled cut", i+1)
		}
	}
	if last := attempts[len(attempts)-1]; last.err != nil {
		t.Fatalf("final attempt failed: %v", last.err)
	}

	// Convergence direction: later attempts reuse at least as much salvaged
	// progress (pages answered by checksum instead of content) as earlier
	// ones, and the final attempt resends strictly fewer full pages than the
	// from-zero transfer attempt 1 was performing.
	for i := 1; i < len(attempts); i++ {
		if attempts[i].m.PagesSum < attempts[i-1].m.PagesSum {
			t.Errorf("attempt %d reused %d sum-pages, less than attempt %d's %d",
				i+1, attempts[i].m.PagesSum, i, attempts[i-1].m.PagesSum)
		}
	}
	if m.PagesFull >= pages {
		t.Errorf("final attempt sent %d full pages; salvage bought nothing", m.PagesFull)
	}
	if m.PagesSum == 0 {
		t.Error("final attempt reused no salvaged pages")
	}

	// The arrival registers asynchronously; then the stale partial image
	// must be superseded (dropped — SaveArrivals is off).
	waitFor(t, func() bool { _, ok := dst.VM("vm0"); return ok }, "arrival never registered")
	waitFor(t, func() bool { _, ok := dst.Store().Entry("vm0"); return !ok },
		"stale salvage image not dropped after successful arrival")

	var sb strings.Builder
	if err := dst.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`vecycle_salvage_total{host="beta",outcome="written"}`,
		`vecycle_salvage_total{host="beta",outcome="resumed"}`,
		`vecycle_salvage_total{host="beta",outcome="superseded"} 1`,
		`vecycle_salvage_pages_total{host="beta"}`,
		`vecycle_salvage_bytes_avoided_total{host="beta"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("destination metrics missing %s", want)
		}
	}
	sb.Reset()
	if err := src.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `vecycle_salvage_total{host="alpha",outcome="resumed"}`) {
		t.Error("source metrics missing the resumed salvage outcome")
	}
}

// waitFor polls cond with a deadline, for destination-side effects that
// complete asynchronously after MigrateTo returns.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSalvageSupersededBySaveArrivals: with SaveArrivals the successful
// retry overwrites the partial image with a complete arrival checkpoint
// instead of dropping it.
func TestSalvageSupersededBySaveArrivals(t *testing.T) {
	dst := newHost(t, "beta")
	dst.SaveArrivals = true
	var handled atomic.Int64
	dst.OnError = func(error) { handled.Add(1) }
	addr := listen(t, dst)

	src := newHost(t, "alpha")
	t.Cleanup(func() { src.Close() })
	v := newGuest(t, "vm0", 128)
	if err := v.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	src.AddVM(v)
	cd := &chaosDialer{t: t, schedule: []int64{120_000}, handled: &handled}
	src.DialFunc = cd.dial

	retryAtOnce(src)
	if _, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{
		Recycle: true,
		Retry:   RetryPolicy{Attempts: 2},
	}); err != nil {
		t.Fatalf("retry did not converge: %v", err)
	}
	waitFor(t, func() bool {
		info, ok := dst.Store().Entry("vm0")
		return ok && info.State == checkpoint.EntryComplete
	}, "arrival image never superseded the partial entry")
}

// TestRetryMaxBackoffCap pins the backoff's cap: however large the retry
// count, the computed delay (jitter included) never exceeds maxBackoff and
// never goes negative — even at retry counts whose uncapped doubling would
// overflow time.Duration.
func TestRetryMaxBackoffCap(t *testing.T) {
	for _, retry := range []int{0, 1, 2, 10, 63, 100, 1024, 10_000} {
		if d := backoff(retry); d < 0 || d > maxBackoff {
			t.Errorf("backoff(%d) = %v, want within [0, %v]", retry, d, maxBackoff)
		}
	}
}

// TestCtxErrorTerminalMidStream pins the cancellation contract: whether
// the cancel surfaces mid-stream (as a transport error on a dying
// connection) or mid-backoff, MigrateTo returns the context's own error
// and does not burn retry attempts.
func TestCtxErrorTerminalMidStream(t *testing.T) {
	dst := newHost(t, "beta")
	addr := listen(t, dst)
	src := newHost(t, "alpha")
	t.Cleanup(func() { src.Close() })
	v := newGuest(t, "vm0", 64)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	src.AddVM(v)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var dials atomic.Int64
	src.DialFunc = func(ctx context.Context, addr string) (io.ReadWriteCloser, error) {
		dials.Add(1)
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		// The caller gives up while the stream is in flight; the connection
		// dies shortly after, so the attempt's own error is a reset, not a
		// context error.
		cancel()
		return core.NewFaultConn(conn, core.FaultConfig{ResetAfterBytes: 10_000}), nil
	}

	attempts := 0
	_, err := src.MigrateTo(ctx, addr, "vm0", MigrateOptions{
		Recycle:   true,
		Retry:     RetryPolicy{Attempts: 5},
		OnAttempt: func(int, core.Metrics, error) { attempts++ },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MigrateTo = %v, want context.Canceled", err)
	}
	if attempts != 1 {
		t.Errorf("ran %d attempts after cancellation, want 1", attempts)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("dialed %d times after cancellation, want 1", n)
	}
}
