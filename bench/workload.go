package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"vecycle/internal/vm"
)

// workload is one set of inputs. The names are final: later issues cite them.
type workload struct {
	name     string
	why      string // one line, repeated in BENCHMARK.json
	guestMiB int
	churnPct float64 // share of pages rewritten between legs
	link     string
	// pingPong workloads set up one pair of hosts (first visit, first
	// return) and then time every further a↔b leg. The others build a fresh
	// pair with empty stores for every sample and time one a→b migration.
	pingPong bool
	setups   int // ping-pong: how often the set-up is repeated for the setup_s median
	warmups  int // fresh-pair: discarded samples before the timed ones
}

var workloads = []workload{
	{
		name: "return-churn5-lan", guestMiB: 256, churnPct: 5, link: "lan", pingPong: true, setups: 2,
		why: "256 MiB guest returning over the LAN shape with 5 % rewritten: restore, announce, hash+probe and the warm save do the work, the wire little",
	},
	{
		name: "return-churn50-lan", guestMiB: 256, churnPct: 50, link: "lan", pingPong: true, setups: 2,
		why: "same with 50 % rewritten: link busy time is about CPU time and the save is write-heavy, so overlapping CPU with the wire shows here",
	},
	{
		name: "first-visit-loopback", guestMiB: 256, link: "loopback", warmups: 2,
		why: "256 MiB guest to a host with an empty store over unshaped loopback: the cold path recycling must not slow down",
	},
	{
		name: "return-small-wan", guestMiB: 16, churnPct: 5, link: "wan", pingPong: true, setups: 3,
		why: "16 MiB guest returning over the 465 Mbps / 27 ms WAN shape: protocol turns, dial, manifest commits and restore open dominate",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// config is one run's inputs besides the workload.
type config struct {
	seed    int64
	seconds float64 // measurement window
	traced  bool    // the per-layer pass instead of the end-to-end one
	workdir string  // stores live in fresh directories below it
	verbose bool    // one line per leg on standard error

	// The smoke test shrinks the run: a fixed number of timed legs in place
	// of the window, a smaller guest, and a hook that sees each timed leg's
	// arrived guest before it is verified.
	legs     int
	guestMiB int
	tamper   func(leg int, v *vm.VM)
}

// result is everything one run of one workload measured.
type result struct {
	w                 workload
	cfg               config
	memBytes          int64
	churnPages        int
	link              linkSpec
	attempted, failed int
	failures          []string
	attempts          int                  // engine attempts over all legs
	degraded          float64              // degradations recorded over all legs
	setups            []float64            // seconds per set-up
	firstVisitS       float64              // ping-pong: return time of the set-up's first-visit leg, same link
	legs              []*leg               // timed legs
	layers            []map[string]float64 // traced pass: per traced leg, metric name → value
	tracedCycle       []float64            // traced pass: cycle times of the traced legs …
	plainCycle        []float64            // … and of the legs run without collection
	replay            map[string]float64   // traced pass: layer replay
	peakRSSMiB        float64
}

// note counts one attempted leg and records why it failed, if it did.
func (r *result) note(what string, l *leg) {
	if r.cfg.verbose {
		fmt.Fprintf(os.Stderr, "%-16s return %.4f s  cycle %.4f s  downtime %.3f ms  cpu %.3f s  wire %d B  %s\n",
			what, l.returnS(), l.cycleS(), l.downtimeS()*1e3, l.cpu, l.wireBytes(), l.fail)
	}
	r.attempted++
	r.attempts += l.attempts
	r.degraded += l.reg.degraded
	if l.fail != "" {
		r.failed++
		r.failures = append(r.failures, what+": "+l.fail)
	}
}

// run measures one workload.
func run(ctx context.Context, w workload, cfg config) (*result, error) {
	link, err := linkByName(w.link)
	if err != nil {
		return nil, err
	}
	guestMiB := w.guestMiB
	if cfg.guestMiB > 0 {
		guestMiB = cfg.guestMiB
	}
	r := &result{w: w, cfg: cfg, link: link, memBytes: int64(guestMiB) << 20}
	r.churnPages = int(float64(r.memBytes/vm.PageSize) * w.churnPct / 100)
	rng := &splitmix{s: uint64(cfg.seed)}
	if w.pingPong {
		err = r.runPingPong(ctx, rng)
	} else {
		err = r.runFreshPairs(ctx, rng)
	}
	r.peakRSSMiB = peakRSSMiB()
	return r, err
}

// more reports whether another timed leg fits: the window is still open, or
// the fixed count is not reached.
func (r *result) more(start time.Time, done int) bool {
	if r.cfg.legs > 0 {
		return done < r.cfg.legs
	}
	return time.Since(start).Seconds() < r.cfg.seconds
}

// setUpPingPong builds a pair, places a fresh guest on a and runs the two
// warm-up legs: the first visit a→b and the first return b→a, with the
// workload's churn after each. Both stores then hold the guest's last
// departure state and every later leg is a recycled return.
func (r *result) setUpPingPong(ctx context.Context, rng *splitmix) (*pair, error) {
	p, err := newPair(r.cfg.workdir, r.link)
	if err != nil {
		return nil, err
	}
	guest, err := newGuest(rng, r.memBytes)
	if err != nil {
		p.close()
		return nil, err
	}
	p.a.host.AddVM(guest)
	for i, hop := range [][2]*side{{p.a, p.b}, {p.b, p.a}} {
		l := p.migrate(ctx, hop[0], hop[1], legOptions{})
		r.note(fmt.Sprintf("warm-up leg %d", i+1), l)
		if l.fail != "" {
			p.close()
			return nil, fmt.Errorf("bench: %s: warm-up leg %d: %s", r.w.name, i+1, l.fail)
		}
		if i == 0 {
			r.firstVisitS = l.returnS()
		}
		churn(l.v, rng, r.churnPages)
	}
	return p, nil
}

func (r *result) runPingPong(ctx context.Context, rng *splitmix) error {
	setups := r.w.setups
	if r.cfg.traced || r.cfg.legs > 0 {
		setups = 1 // setup_s belongs to the end-to-end pass at full scale
	}
	var p *pair
	for i := 0; i < setups; i++ {
		if p != nil {
			// The next set-up starts without the last one's garbage, as the
			// first did.
			p.close()
			p = nil
			runtime.GC()
		}
		begin := time.Now()
		var err error
		if p, err = r.setUpPingPong(ctx, rng); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(begin).Seconds())
	}
	defer p.close()

	src, dst := p.a, p.b
	var guest *vm.VM
	for start, n := time.Now(), 0; r.more(start, n); n++ {
		var err error
		if guest, err = r.timedLeg(ctx, p, src, dst, n); err != nil {
			return err
		}
		churn(guest, rng, r.churnPages)
		src, dst = dst, src
	}
	if r.cfg.traced && guest != nil {
		// After the swap src names the host the guest sits on.
		var err error
		r.replay, err = replayLayers(ctx, src, guest, r, rng)
		return err
	}
	return nil
}

func (r *result) runFreshPairs(ctx context.Context, rng *splitmix) error {
	// The newest sample's pair and arrived guest stay open until the next
	// sample, so the replay can use the last one's.
	var p *pair
	var arrived *vm.VM
	defer func() {
		if p != nil {
			p.close()
		}
	}()
	// sample builds a fresh pair and guest (one set-up) and migrates a→b
	// once; n < 0 marks a discarded warm-up.
	sample := func(n int) error {
		if p != nil {
			// Like a returning workload's set-ups, every sample's starts
			// without the last one's garbage.
			p.close()
			p, arrived = nil, nil
			runtime.GC()
		}
		begin := time.Now()
		var err error
		if p, err = newPair(r.cfg.workdir, r.link); err != nil {
			return err
		}
		guest, err := newGuest(rng, r.memBytes)
		if err != nil {
			return err
		}
		p.a.host.AddVM(guest)
		r.setups = append(r.setups, time.Since(begin).Seconds())
		if n >= 0 {
			arrived, err = r.timedLeg(ctx, p, p.a, p.b, n)
			return err
		}
		l := p.migrate(ctx, p.a, p.b, legOptions{})
		r.note("warm-up sample", l)
		if l.fail != "" {
			return fmt.Errorf("bench: %s: warm-up sample: %s", r.w.name, l.fail)
		}
		return nil
	}
	if r.cfg.legs == 0 {
		for i := 0; i < r.w.warmups; i++ {
			if err := sample(-1); err != nil {
				return err
			}
		}
	}
	for start, n := time.Now(), 0; r.more(start, n); n++ {
		if err := sample(n); err != nil {
			return err
		}
	}
	if r.cfg.traced && arrived != nil {
		var err error
		r.replay, err = replayLayers(ctx, p.b, arrived, r, rng)
		return err
	}
	return nil
}

// timedLeg runs timed leg n from src to dst, collects both stores, files
// what was measured and returns the arrived guest. The traced pass
// alternates collected and plain legs, so the two cycle-time medians that
// give the tracing overhead share one run.
func (r *result) timedLeg(ctx context.Context, p *pair, src, dst *side, n int) (*vm.VM, error) {
	collect := r.cfg.traced && n%2 == 0
	var l *leg
	var layer map[string]float64
	if collect {
		l, layer = p.traceLeg(ctx, src, dst)
	} else {
		var lo legOptions
		if r.cfg.tamper != nil {
			lo.tamper = func(v *vm.VM) { r.cfg.tamper(n, v) }
		}
		l = p.migrate(ctx, src, dst, lo)
	}
	r.note(fmt.Sprintf("leg %d", n+1), l)
	if l.v == nil {
		return nil, fmt.Errorf("bench: %s: leg %d: %s", r.w.name, n+1, l.fail)
	}
	arrived := l.v
	l.v = nil // a filed leg must not keep a guest's RAM alive
	gc, err := p.collectStores()
	if err != nil {
		return nil, err
	}
	if l.fail != "" {
		return arrived, nil // counted above; a failed leg's timings describe nothing
	}
	r.legs = append(r.legs, l)
	switch {
	case collect:
		layer["checkpoint.gc_s"] = gc
		r.layers = append(r.layers, layer)
		r.tracedCycle = append(r.tracedCycle, l.cycleS())
	case r.cfg.traced:
		r.plainCycle = append(r.plainCycle, l.cycleS())
	}
	return arrived, nil
}

// collectStores runs the untimed Store.GC that bounds both stores between
// legs and reports the seconds it took.
func (p *pair) collectStores() (float64, error) {
	begin := time.Now()
	for _, s := range []*side{p.a, p.b} {
		if _, err := s.host.Store().GC(); err != nil {
			return 0, fmt.Errorf("bench: store gc on %s: %w", s.host.Name(), err)
		}
	}
	gc := time.Since(begin).Seconds()
	syncDir(p.a.dir)
	syncDir(p.b.dir)
	return gc, nil
}
