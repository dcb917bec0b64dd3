package sched

import (
	"context"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vecycle/internal/checksum"
	"vecycle/internal/core"
	"vecycle/internal/vm"
)

// Announce by name, through two hosts: a recycled leg offers the source's own
// store entry of the VM by its manifest root, and the destination skips its
// announcement exactly when the entry it opened has that root. Everything
// else — no entry on either side, a different one, a salvage partial, another
// algorithm, a union — is announced, and converges all the same.

// namedPair is two listening hosts ping-ponging one guest, every leg
// verified page for page.
type namedPair struct {
	t        *testing.T
	hosts    map[string]*Host
	addrs    map[string]string
	arrivals chan core.DestResult
	rng      *rand.Rand
	pages    int
}

func newNamedPair(t *testing.T, pages int, saveArrivals bool) *namedPair {
	return pairOf(t, pages, saveArrivals, newHost(t, "alpha"), newHost(t, "beta"))
}

// pairOf wires alpha and beta into a pair, with the guest on alpha.
func pairOf(t *testing.T, pages int, saveArrivals bool, alpha, beta *Host) *namedPair {
	p := &namedPair{t: t, hosts: map[string]*Host{}, addrs: map[string]string{},
		arrivals: make(chan core.DestResult, 1), // one migration in flight at a time
		rng:      rand.New(rand.NewSource(42)), pages: pages}
	p.adopt(alpha, saveArrivals)
	p.adopt(beta, saveArrivals)
	guest := newGuest(t, "vm0", pages)
	if err := guest.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	p.hosts["alpha"].AddVM(guest)
	return p
}

// adopt wires a host into the pair and starts its listener.
func (p *namedPair) adopt(h *Host, saveArrivals bool) {
	h.SaveArrivals = saveArrivals
	h.OnArrival = func(_ *vm.VM, res core.DestResult) { p.arrivals <- res }
	p.hosts[h.Name()], p.addrs[h.Name()] = h, listen(p.t, h)
}

// rewrite gives k distinct pages of the guest on host fresh content and
// reports which.
func (p *namedPair) rewrite(host string, k int) []int {
	p.t.Helper()
	v, ok := p.hosts[host].VM("vm0")
	if !ok {
		p.t.Fatalf("vm0 is not on %s", host)
	}
	buf := make([]byte, vm.PageSize)
	touched := p.rng.Perm(p.pages)[:k]
	for _, page := range touched {
		p.rng.Read(buf)
		v.WritePage(page, buf)
	}
	return touched
}

// hop migrates vm0 from→to and checks it arrived byte-identical to the guest
// as it paused.
func (p *namedPair) hop(from, to string, opts MigrateOptions) (core.Metrics, core.DestResult) {
	p.t.Helper()
	opts.Recycle, opts.KeepCheckpoint = true, true
	leaving, ok := p.hosts[from].VM("vm0")
	if !ok {
		p.t.Fatalf("vm0 is not on %s", from)
	}
	var want []uint64
	opts.Pause = func() { want = leaving.Fingerprint64() }
	m, err := p.hosts[from].MigrateTo(context.Background(), p.addrs[to], "vm0", opts)
	if err != nil {
		p.t.Fatalf("%s→%s: %v", from, to, err)
	}
	if want == nil {
		p.t.Fatalf("%s→%s never paused the guest", from, to)
	}
	var res core.DestResult
	select {
	case res = <-p.arrivals:
	case <-time.After(10 * time.Second):
		p.t.Fatalf("%s→%s: no arrival", from, to)
	}
	landed, _ := p.hosts[to].VM("vm0")
	fingerprintEqual(p.t, want, landed)
	return m, res
}

// announced reports whether a leg carried a bulk announcement, checking that
// both ends agree.
func announced(t *testing.T, leg string, m core.Metrics, res core.DestResult) bool {
	t.Helper()
	if (m.AnnounceBytes == 0) != (res.Metrics.AnnounceBytes == 0) {
		t.Fatalf("%s: source read a %d-byte announcement, destination sent %d", leg, m.AnnounceBytes, res.Metrics.AnnounceBytes)
	}
	return m.AnnounceBytes != 0
}

// TestByNameDefaultPingPong: under the product defaults every return leg is
// matched by name — no announcement on either side — and moves exactly the
// pages an announced ping-pong of the same guest moves.
func TestByNameDefaultPingPong(t *testing.T) {
	const pages, rewritten, legs = 512, 24, 5
	type counts struct{ full, sum, inPlace, fromDisk, rounds int }
	run := func(saveArrivals bool) (out []counts, announcedLegs []bool) {
		p := newNamedPair(t, pages, saveArrivals)
		at, to := "alpha", "beta"
		for leg := 1; leg <= legs; leg++ {
			m, res := p.hop(at, to, MigrateOptions{})
			out = append(out, counts{m.PagesFull, m.PagesSum, res.Metrics.PagesReusedInPlace, res.Metrics.PagesReusedFromDisk, m.Rounds})
			announcedLegs = append(announcedLegs, announced(t, at+"→"+to, m, res))
			at, to = to, at
			p.rewrite(at, rewritten)
		}
		return out, announcedLegs
	}
	// With arrival images both ends of a return hold the same checkpoint.
	// Without them the returning source holds nothing (leg 2) or only the
	// image of its own last departure, two legs stale (legs ≥ 3) — offered,
	// never matched.
	named, namedAnn := run(true)
	plain, plainAnn := run(false)
	for i := range named {
		leg := i + 1
		if wantAnn := false; namedAnn[i] != wantAnn {
			t.Errorf("leg %d with arrival images: announced=%v, want %v", leg, namedAnn[i], wantAnn)
		}
		if wantAnn := leg >= 2; plainAnn[i] != wantAnn {
			t.Errorf("leg %d without arrival images: announced=%v, want %v", leg, plainAnn[i], wantAnn)
		}
		if named[i] != plain[i] {
			t.Errorf("leg %d: page counters differ between the named run %+v and the announced run %+v", leg, named[i], plain[i])
		}
		if leg >= 2 && (named[i].full != rewritten || named[i].sum != pages-rewritten) {
			t.Errorf("leg %d: %d full / %d checksum pages, want %d / %d", leg, named[i].full, named[i].sum, rewritten, pages-rewritten)
		}
	}
}

// TestByNameFallsBack: every way the two checkpoints can fail to be the same
// one ends in an announcement and a byte-identical arrival, and the leg after
// it is matched by name again.
func TestByNameFallsBack(t *testing.T) {
	const pages, rewritten = 512, 24
	// setup leaves vm0 on alpha after a→b→a: both hosts hold the same complete
	// checkpoint of it, and the next a→b leg would match.
	setup := func(t *testing.T) *namedPair {
		p := newNamedPair(t, pages, true)
		p.hop("alpha", "beta", MigrateOptions{})
		p.rewrite("beta", rewritten)
		if m, res := p.hop("beta", "alpha", MigrateOptions{}); announced(t, "set-up return", m, res) {
			t.Fatal("set-up return leg was announced; the pair does not match by name at all")
		}
		return p
	}
	// after: the fallback leg repaired whatever differed, so the way back is
	// by name again.
	after := func(t *testing.T, p *namedPair) {
		t.Helper()
		p.rewrite("beta", rewritten)
		if m, res := p.hop("beta", "alpha", MigrateOptions{}); announced(t, "leg after the fallback", m, res) {
			t.Error("the leg after the fallback was announced too")
		}
	}

	t.Run("source-entry-removed", func(t *testing.T) {
		p := setup(t)
		p.rewrite("alpha", rewritten)
		st := p.hosts["alpha"].Store()
		if err := st.Remove("vm0"); err != nil {
			t.Fatal(err)
		}
		if _, err := st.GC(); err != nil {
			t.Fatal(err)
		}
		m, res := p.hop("alpha", "beta", MigrateOptions{})
		if !announced(t, "alpha→beta", m, res) {
			t.Error("matched by name although the source's entry was removed and collected")
		}
		if m.PagesFull != rewritten {
			t.Errorf("sent %d full pages, want the %d rewritten ones", m.PagesFull, rewritten)
		}
		after(t, p)
	})

	t.Run("destination-entry-overwritten", func(t *testing.T) {
		p := setup(t)
		p.rewrite("alpha", rewritten)
		// Half the guest's current content, half content of its own.
		other := newGuest(t, "vm0", pages)
		v, _ := p.hosts["alpha"].VM("vm0")
		buf := make([]byte, vm.PageSize)
		for i := 0; i < pages; i++ {
			if i < pages/2 {
				v.ReadPage(i, buf)
			} else {
				p.rng.Read(buf)
			}
			other.InstallPage(i, buf)
		}
		if err := p.hosts["beta"].Store().Save(other); err != nil {
			t.Fatal(err)
		}
		m, res := p.hop("alpha", "beta", MigrateOptions{})
		if !announced(t, "alpha→beta", m, res) {
			t.Error("matched by name although the destination's entry is a different checkpoint")
		}
		if m.PagesSum != pages/2 || m.PagesFull != pages/2 {
			t.Errorf("%d checksum / %d full pages against a half-matching checkpoint", m.PagesSum, m.PagesFull)
		}
		after(t, p)
	})

	t.Run("salvage-partial-after-cut", func(t *testing.T) {
		p := setup(t)
		// Enough full pages for the cut to land among them; a from-zero
		// attempt sends every one of them.
		fromZero := len(p.rewrite("alpha", pages/4))
		var handled atomic.Int64
		p.hosts["beta"].OnError = func(error) { handled.Add(1) }
		cd := &chaosDialer{t: t, schedule: []int64{300_000}, handled: &handled}
		p.hosts["alpha"].DialFunc = cd.dial
		var attempts []core.Metrics
		m, res := p.hop("alpha", "beta", MigrateOptions{
			Retry:     RetryPolicy{Attempts: 2, Backoff: time.Millisecond},
			OnAttempt: func(_ int, m core.Metrics, _ error) { attempts = append(attempts, m) },
		})
		p.hosts["alpha"].DialFunc = nil
		if len(attempts) != 2 {
			t.Fatalf("ran %d attempts, want 2 (one cut, one clean)", len(attempts))
		}
		if attempts[0].AnnounceBytes != 0 || attempts[0].PagesSum == 0 {
			t.Errorf("the cut attempt read a %d-byte announcement and sent %d checksum pages; it should have matched by name",
				attempts[0].AnnounceBytes, attempts[0].PagesSum)
		}
		if !announced(t, "retry", m, res) || !res.ResumedFromPartial {
			t.Errorf("retry: announced=%v resumed=%v, want the salvage image announced", m.AnnounceBytes != 0, res.ResumedFromPartial)
		}
		// What the salvage image already holds is announced back, so the retry
		// resends strictly fewer full pages than a from-zero attempt.
		if m.PagesFull == 0 || m.PagesFull >= fromZero {
			t.Errorf("retry resent %d full pages; a from-zero attempt sends %d", m.PagesFull, fromZero)
		}
		after(t, p)
	})

	t.Run("md5", func(t *testing.T) {
		p := setup(t)
		p.rewrite("alpha", rewritten)
		m, res := p.hop("alpha", "beta", MigrateOptions{Alg: checksum.MD5})
		if !announced(t, "alpha→beta", m, res) {
			t.Error("an MD5 leg was matched by a root that names SHA-256 keys")
		}
		if m.PagesFull != rewritten {
			t.Errorf("sent %d full pages, want %d", m.PagesFull, rewritten)
		}
		if tr := traceJSON(t, p.hosts["beta"]); !strings.Contains(tr, "manifest=announced") {
			t.Errorf("destination trace does not say the leg was announced:\n%s", tr)
		}
		after(t, p)
	})

	t.Run("union-bootstrap", func(t *testing.T) {
		p := setup(t)
		p.rewrite("alpha", rewritten)
		// A second guest sharing vm0's content, which alpha has a checkpoint of
		// (so its hello offers a root) and beta has never seen.
		v, _ := p.hosts["alpha"].VM("vm0")
		twin := newGuest(t, "vm1", pages)
		buf := make([]byte, vm.PageSize)
		for i := 0; i < pages; i++ {
			v.ReadPage(i, buf)
			twin.InstallPage(i, buf)
		}
		if err := p.hosts["alpha"].Store().Save(twin); err != nil {
			t.Fatal(err)
		}
		p.hosts["alpha"].AddVM(twin)
		want := twin.Fingerprint64()
		m, err := p.hosts["alpha"].MigrateTo(context.Background(), p.addrs["beta"], "vm1",
			MigrateOptions{Recycle: true, KeepCheckpoint: true})
		if err != nil {
			t.Fatal(err)
		}
		res := <-p.arrivals
		landed, _ := p.hosts["beta"].VM("vm1")
		fingerprintEqual(t, want, landed)
		if !res.UnionBootstrap || !announced(t, "vm1 alpha→beta", m, res) {
			t.Errorf("union=%v announce=%d bytes: want the union of beta's store announced", res.UnionBootstrap, m.AnnounceBytes)
		}
		if m.PagesSum < pages-2*rewritten {
			t.Errorf("only %d pages went as checksums against a store holding most of them", m.PagesSum)
		}
	})
}

// TestByNameSurvivesRestart: the name lives in the store, so hosts re-created
// over the same store directories still match.
func TestByNameSurvivesRestart(t *testing.T) {
	const pages, rewritten = 256, 12
	p := newNamedPair(t, pages, true)
	p.hop("alpha", "beta", MigrateOptions{})
	p.rewrite("beta", rewritten)
	guest, _ := p.hosts["beta"].VM("vm0")
	for _, name := range []string{"alpha", "beta"} {
		old := p.hosts[name]
		old.Close()
		h, err := NewHost(name, old.Store().Dir())
		if err != nil {
			t.Fatal(err)
		}
		p.adopt(h, true)
	}
	p.hosts["beta"].AddVM(guest)
	m, res := p.hop("beta", "alpha", MigrateOptions{})
	if announced(t, "beta→alpha after restart", m, res) {
		t.Error("restarted hosts fell back to the announcement")
	}
	if m.PagesFull != rewritten {
		t.Errorf("sent %d full pages, want %d", m.PagesFull, rewritten)
	}
}
