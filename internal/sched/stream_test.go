package sched

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/core"
	"vecycle/internal/faultfs"
	"vecycle/internal/obs"
	"vecycle/internal/vm"
)

// Streamed saves through two hosts. Each side of a return writes its
// checkpoint segment while the pages cross — the source from what its
// encoder reads, the destination from what its merge installs — and commits
// after the ack. Whatever the engine and its options, the committed entries
// must be exactly what a save after the ack would have written.

// savedCounts waits until h has traced n finished migrations in role and
// returns the streamed and caught-up page counts of the newest one's
// checkpoint-saved event.
func savedCounts(t *testing.T, h *Host, role string, n int) (streamed, caughtUp int) {
	t.Helper()
	var newest obs.Migration
	waitFor(t, func() bool {
		seen := 0
		for _, m := range h.Traces().Recent() { // newest first
			if m.Role == role {
				if seen == 0 {
					newest = m
				}
				seen++
			}
		}
		return seen >= n
	}, fmt.Sprintf("%s never traced %d %s migrations", h.Name(), n, role))
	for _, e := range newest.Events {
		if e.Kind != "checkpoint-saved" {
			continue
		}
		i := strings.Index(e.Detail, "streamed=")
		if i < 0 {
			t.Fatalf("checkpoint-saved detail %q has no counts", e.Detail)
		}
		if _, err := fmt.Sscanf(e.Detail[i:], "streamed=%d caught_up=%d", &streamed, &caughtUp); err != nil {
			t.Fatalf("checkpoint-saved detail %q: %v", e.Detail, err)
		}
		return streamed, caughtUp
	}
	t.Fatalf("%s traced no checkpoint-saved event for its last %s migration", h.Name(), role)
	return 0, 0
}

// pageKeys hashes every page of v under the store's key algorithm: the key
// list a save after the ack writes for it.
func pageKeys(v *vm.VM) []checksum.Sum {
	keys := make([]checksum.Sum, v.NumPages())
	buf := make([]byte, vm.PageSize)
	for i := range keys {
		v.ReadPage(i, buf)
		keys[i] = checkpoint.ObjectAlgorithm.Page(buf)
	}
	return keys
}

// missing counts the distinct keys of want a store whose pool held prior
// would have to write.
func missing(want, prior []checksum.Sum) int {
	held := map[checksum.Sum]bool{}
	for _, k := range prior {
		held[k] = true
	}
	n := 0
	for _, k := range want {
		if !held[k] {
			held[k] = true
			n++
		}
	}
	return n
}

// midRoundConn runs fire once, after the source has written after bytes of a
// leg — inside round one, with pages already sent and pages still to go.
type midRoundConn struct {
	io.ReadWriteCloser
	written atomic.Int64
	after   int64
	once    *sync.Once
	fire    func()
}

func (c *midRoundConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	if c.written.Add(int64(n)) >= c.after {
		c.once.Do(c.fire)
	}
	return n, err
}

// TestStreamedSaveEquivalence ping-pongs a guest between two hosts with
// compression on and off. The first visit streams nothing. On each return the
// guest rewrites pages during round one, so round two resends them and both
// streams hold slots that end up dead. After every leg both hosts' entries
// must be key for key the guest's final state, verify against their
// payloads, and account for every page the save was missing as streamed or
// caught up — all of it streamed on a return.
func TestStreamedSaveEquivalence(t *testing.T) {
	const pages, rewritten, duringRound = 1024, 256, 64
	for _, compress := range []bool{false, true} {
		// workers=0 and ranges=true are the levels kept from when this looped
		// over engine widths and wire dialects: the one engine runs no
		// pipeline workers and always speaks range frames.
		name := fmt.Sprintf("workers=0/ranges=true/compress=%v", compress)
		t.Run(name, func(t *testing.T) {
			p := newNamedPair(t, pages, true)
			opts := MigrateOptions{Compress: compress}
			at, to := "alpha", "beta"
			traced := map[string]int{} // finished migrations per host and role
			for leg := 1; leg <= 3; leg++ {
				var fired atomic.Bool
				if leg > 1 {
					p.rewrite(at, rewritten)
					guest, _ := p.hosts[at].VM("vm0")
					once, rng := new(sync.Once), rand.New(rand.NewSource(int64(leg)))
					p.hosts[at].DialFunc = func(ctx context.Context, addr string) (io.ReadWriteCloser, error) {
						var d net.Dialer
						conn, err := d.DialContext(ctx, "tcp", addr)
						if err != nil {
							return nil, err
						}
						return &midRoundConn{ReadWriteCloser: conn, after: 64 << 10, once: once, fire: func() {
							fired.Store(true)
							buf := make([]byte, vm.PageSize)
							for _, page := range rng.Perm(pages)[:duringRound] {
								rng.Read(buf)
								guest.WritePage(page, buf)
							}
						}}, nil
					}
				}
				var prior [2][]checksum.Sum
				for i, h := range []string{at, to} {
					_, prior[i], _ = p.hosts[h].Store().Mirror("vm0")
				}
				m, _ := p.hop(at, to, opts)
				p.hosts[at].DialFunc = nil
				if leg > 1 && (!fired.Load() || m.Rounds < 2) {
					t.Fatalf("leg %d: round-one writes fired=%v, %d rounds; the leg resent nothing", leg, fired.Load(), m.Rounds)
				}
				landed, _ := p.hosts[to].VM("vm0")
				want := pageKeys(landed)
				for i, h := range []string{at, to} {
					host, role := p.hosts[h], []string{"source", "dest"}[i]
					_, keys, ok := host.Store().Mirror("vm0")
					if !ok || !slices.Equal(keys, want) {
						t.Fatalf("leg %d: %s's entry (present %v) is not the guest's final state", leg, h, ok)
					}
					if err := host.Store().Verify("vm0"); err != nil {
						t.Fatalf("leg %d: %s: %v", leg, h, err)
					}
					traced[h+role]++
					streamed, caughtUp := savedCounts(t, host, role, traced[h+role])
					if need := missing(want, prior[i]); streamed+caughtUp != need {
						t.Errorf("leg %d %s: streamed %d + caught up %d pages, the save was missing %d", leg, role, streamed, caughtUp, need)
					}
					if leg == 1 && streamed != 0 {
						t.Errorf("first visit %s streamed %d pages, want 0", role, streamed)
					}
					if leg > 1 && (streamed == 0 || caughtUp != 0) {
						t.Errorf("return leg %d %s: streamed %d, caught up %d; want everything streamed", leg, role, streamed, caughtUp)
					}
				}
				at, to = to, at
			}
		})
	}
}

// TestStreamedSaveAbortedByCut: a return cut in round one, with no retry,
// leaves neither host an in-flight segment file. The source aborts its
// stream, the destination commits its stream as the salvage entry, and both
// keep the VM's previous checkpoint or that salvage.
func TestStreamedSaveAbortedByCut(t *testing.T) {
	const pages = 1024
	p := newNamedPair(t, pages, true)
	p.hop("alpha", "beta", MigrateOptions{})
	p.rewrite("beta", pages/2)
	var handled atomic.Int64
	p.hosts["alpha"].OnError = func(error) { handled.Add(1) }
	cd := &chaosDialer{t: t, schedule: []int64{1 << 20}, handled: &handled}
	p.hosts["beta"].DialFunc = cd.dial
	if _, err := p.hosts["beta"].MigrateTo(context.Background(), p.addrs["alpha"], "vm0",
		MigrateOptions{Recycle: true, KeepCheckpoint: true}); err == nil {
		t.Fatal("a cut migration with no retry succeeded")
	}
	waitFor(t, func() bool { return handled.Load() == 1 }, "destination never finished the cut migration")
	for name, h := range p.hosts {
		dirents, err := os.ReadDir(h.Store().Dir())
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range dirents {
			if strings.HasSuffix(de.Name(), ".tmp") {
				t.Errorf("%s kept the in-flight file %s", name, de.Name())
			}
		}
		if err := h.Store().Verify("vm0"); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if state, _ := p.hosts["alpha"].Store().State("vm0"); state != checkpoint.EntryPartial {
		t.Errorf("destination's entry is %v, want the salvage partial", state)
	}
}

// TestChaosStoreStreamEIO: one write under a host's save stream fails with
// EIO. The migration still succeeds on its one attempt; exactly one save
// degrades, on the side whose disk failed; and the commit's catch-up writes
// an entry byte-identical to the guest, every missing page after the ack.
func TestChaosStoreStreamEIO(t *testing.T) {
	const pages, rewritten = 1024, 256
	for _, side := range []string{"source", "dest"} {
		t.Run(side, func(t *testing.T) {
			inj := faultfs.NewInjector()
			faulty := map[string]string{"source": "beta", "dest": "alpha"}[side]
			hosts := map[string]*Host{}
			for _, name := range []string{"alpha", "beta"} {
				hosts[name] = newHost(t, name)
				if name == faulty {
					hosts[name] = newFaultHost(t, name, inj)
				}
			}
			p := pairOf(t, pages, true, hosts["alpha"], hosts["beta"])
			p.hop("alpha", "beta", MigrateOptions{})
			p.rewrite("beta", rewritten)

			inj.Arm(faultfs.Fault{Op: faultfs.OpWrite, Path: ".seg.tmp", Err: faultfs.ErrEIO})
			attempts := 0
			p.hop("beta", "alpha", MigrateOptions{OnAttempt: func(int, core.Metrics, error) { attempts++ }})
			if attempts != 1 {
				t.Errorf("ran %d attempts, want 1", attempts)
			}
			if len(inj.Shots()) != 1 {
				t.Fatalf("%d faults fired, want the one armed", len(inj.Shots()))
			}
			h := p.hosts[faulty]
			stage := map[string]string{"source": "keep-checkpoint", "dest": "save-arrivals"}[side]
			metrics := scrape(t, h)
			if want := fmt.Sprintf(`vecycle_degraded_total{host=%q,stage=%q,fault="eio"} 1`, faulty, stage); !strings.Contains(metrics, want) {
				t.Errorf("want %s; metrics:\n%s", want, metrics)
			}
			if strings.Count(metrics, "vecycle_degraded_total{") != 1 {
				t.Errorf("more than one degradation counted:\n%s", metrics)
			}
			landed, _ := p.hosts["alpha"].VM("vm0")
			_, keys, ok := h.Store().Mirror("vm0")
			if !ok || !slices.Equal(keys, pageKeys(landed)) {
				t.Fatal("the caught-up entry is not the guest's final state")
			}
			if err := h.Store().Verify("vm0"); err != nil {
				t.Fatal(err)
			}
			restored := newGuest(t, "vm0", pages)
			cp, err := h.Store().Restore("vm0", checkpoint.ObjectAlgorithm, restored)
			if err != nil {
				t.Fatal(err)
			}
			cp.Close()
			fingerprintEqual(t, landed.Fingerprint64(), restored)
			if streamed, caughtUp := savedCounts(t, h, side, 1); streamed != 0 || caughtUp != rewritten {
				t.Errorf("saved streamed=%d caught_up=%d, want 0 and %d", streamed, caughtUp, rewritten)
			}
		})
	}
}
