package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"vecycle/internal/obs"
	"vecycle/internal/sched"
	"vecycle/internal/vm"
)

// The traced pass. Spans are assembled here, in the benchmark, from the
// harness's own stamps (call, pause, resume, return, arrival) and the event
// timestamps both hosts already expose through Host.Traces(); one leg is one
// identifier. Nothing inside the program is instrumented for it.

// seriesSum adds up the series of one metric family in a registry's
// Prometheus rendering — the only read access a registry offers — keeping
// those whose label set contains every given `key="value"` fragment.
func seriesSum(rendered, family string, labels ...string) float64 {
	var sum float64
lines:
	for _, line := range strings.Split(rendered, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		if rest := line[len(family):]; rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue // a longer family name
		}
		for _, l := range labels {
			if !strings.Contains(line, l) {
				continue lines
			}
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// regCounters are the registry counters the benchmark reads, both hosts
// together: degradation-ladder rungs taken and the save-side digest volumes.
type regCounters struct{ degraded, saveKeys, saveSidecar, avoided float64 }

func (p *pair) counters() regCounters {
	var c regCounters
	for _, s := range []*side{p.a, p.b} {
		var b strings.Builder
		if err := s.host.Registry().WritePrometheus(&b); err != nil {
			continue // a strings.Builder does not fail
		}
		text := b.String()
		c.degraded += seriesSum(text, "vecycle_degraded_total")
		c.saveKeys += seriesSum(text, "vecycle_hash_bytes_total", `stage="save_keys"`)
		c.saveSidecar += seriesSum(text, "vecycle_hash_bytes_total", `stage="save_sidecar"`)
		c.avoided += seriesSum(text, "vecycle_hash_avoided_bytes_total")
	}
	return c
}

func (c regCounters) minus(o regCounters) regCounters {
	return regCounters{c.degraded - o.degraded, c.saveKeys - o.saveKeys, c.saveSidecar - o.saveSidecar, c.avoided - o.avoided}
}

func (p *pair) physicalBytes() int64 {
	return p.a.host.Store().Stats().PhysicalBytes + p.b.host.Store().Stats().PhysicalBytes
}

// traceOf returns the host's completed trace of the leg that began at t0.
// The destination files its record just after OnArrival returns, so the
// lookup retries briefly.
func traceOf(h *sched.Host, role string, t0 time.Time) (obs.Migration, error) {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		for _, m := range h.Traces().Recent() {
			if m.Role == role && m.VM == vmName && !m.Start.Before(t0) {
				return m, nil
			}
		}
		if time.Now().After(deadline) {
			return obs.Migration{}, fmt.Errorf("no %s trace on host %s", role, h.Name())
		}
	}
}

// eventTime finds the first event of a kind (and round, when round > 0).
func eventTime(m obs.Migration, kind string, round int) (time.Time, bool) {
	for _, e := range m.Events {
		if e.Kind == kind && (round == 0 || e.Round == round) {
			return e.T, true
		}
	}
	return time.Time{}, false
}

// interval is a closed span on the leg's clock.
type interval struct{ from, to time.Time }

func (iv interval) seconds() float64 {
	if iv.to.Before(iv.from) {
		return 0
	}
	return iv.to.Sub(iv.from).Seconds()
}

// unionSeconds is the time covered by at least one interval.
func unionSeconds(ivs []interval) float64 {
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].from.Before(sorted[j].from) })
	var total float64
	var covered time.Time // everything before it is counted
	for _, iv := range sorted {
		if iv.from.Before(covered) {
			iv.from = covered
		}
		if iv.to.After(iv.from) {
			total += iv.seconds()
			covered = iv.to
		}
	}
	return total
}

// phaseSpans cuts one leg's cycle into the phases of the layer budget.
//
//	call ─ dial+hello ─ accept ─ restore ─ sidecar ─ announce ─ set ─ round 1 ─ … pause ─ downtime ─ resume
//	resume ─ source save ─ saved          done ─ destination save ─ saved        (the two saves overlap)
func phaseSpans(l *leg, src, dst obs.Migration) (map[string]float64, error) {
	var missing error
	need := func(m obs.Migration, kind string, round int) time.Time {
		t, ok := eventTime(m, kind, round)
		if !ok && missing == nil {
			missing = fmt.Errorf("%s trace on %s has no %q event", m.Role, m.Host, kind)
		}
		return t
	}
	accepted := dst.Start
	restored, ok := eventTime(dst, "sidecar", 0)
	if !ok {
		restored = accepted // no checkpoint was restored
	}
	gotSet, ok := eventTime(src, "announce", 0)
	if !ok {
		gotSet = need(src, "hello", 0) // hello-ack in hand, nothing announced
	}
	round1 := need(src, "round", 1)
	srcSaved := need(src, "checkpoint-saved", 0)
	dstDone := need(dst, "done", 0)
	dstSaved := need(dst, "checkpoint-saved", 0)
	if missing != nil {
		return nil, missing
	}
	ivs := []interval{
		{l.t0, accepted}, {accepted, restored}, {restored, gotSet}, {gotSet, round1},
		{l.paused, l.resumed}, {l.resumed, srcSaved}, {dstDone, dstSaved},
	}
	names := []string{
		"sched.phase_dial_hello_s", "checkpoint.phase_restore_s", "checksum.phase_announce_s", "core.phase_round1_s",
		"core.phase_downtime_s", "checkpoint.phase_save_src_s", "checkpoint.phase_save_dst_s",
	}
	out := make(map[string]float64)
	for i, iv := range ivs {
		out[names[i]] = iv.seconds()
	}
	out["sched.phase_unaccounted_s"] = l.cycleS() - unionSeconds(ivs)
	return out, nil
}

// traceLeg is migrate with collection on: phase spans, the engine's and the
// wrapper's counts, registry and store deltas and allocator statistics of
// the one leg, keyed by per-layer metric name. All of it is read outside the
// leg's timed interval.
func (p *pair) traceLeg(ctx context.Context, src, dst *side) (*leg, map[string]float64) {
	phys0 := p.physicalBytes()
	l := p.migrate(ctx, src, dst, legOptions{allocStats: true})
	if l.fail != "" {
		return l, nil
	}
	layer, err := p.layerOf(l, src, dst, phys0)
	if err != nil {
		l.fail = "trace: " + err.Error()
	}
	return l, layer
}

func (p *pair) layerOf(l *leg, src, dst *side, phys0 int64) (map[string]float64, error) {
	srcTrace, err := traceOf(src.host, "source", l.t0)
	if err != nil {
		return nil, err
	}
	dstTrace, err := traceOf(dst.host, "dest", l.t0)
	if err != nil {
		return nil, err
	}
	out, err := phaseSpans(l, srcTrace, dstTrace)
	if err != nil {
		return nil, err
	}
	out["core.pages_full"] = float64(l.src.PagesFull)
	out["core.pages_sum"] = float64(l.src.PagesSum)
	out["core.reused_in_place"] = float64(l.dst.PagesReusedInPlace)
	out["core.reused_from_disk"] = float64(l.dst.PagesReusedFromDisk)
	out["core.page_frames"] = float64(l.src.PageFrames)
	out["core.range_frames"] = float64(l.src.RangeFrames)
	// The destination's count: the source's Metrics.AnnounceBytes leaves out
	// whatever its 64 KiB control reader had already buffered along with the
	// hello-ack — all of a 16 MiB guest's announcement.
	out["core.announce_bytes"] = float64(l.dst.AnnounceBytes)
	out["core.rounds"] = float64(l.src.Rounds)
	out["core.wire_writes"] = float64(l.writes)
	out["core.wire_turns"] = float64(l.turns)

	out["obs.hash_bytes.save_keys"] = l.reg.saveKeys
	out["obs.hash_bytes.save_sidecar"] = l.reg.saveSidecar
	out["obs.hash_avoided_bytes"] = l.reg.avoided

	// Each host saved the guest once; what is new to a store is the pages
	// that crossed the wire in full.
	if newBytes := 2 * float64(l.src.PagesFull) * vm.PageSize; newBytes > 0 {
		out["checkpoint.write_amp"] = float64(p.physicalBytes()-phys0) / newBytes
	}
	out["checkpoint.segments"] = float64(p.a.host.Store().Stats().Segments + p.b.host.Store().Stats().Segments)

	if p.link.shaped {
		busy := float64(l.wireBytes()) / p.link.shape.BytesPerSecond
		out["netem.link_busy_s"] = busy
		out["netem.link_util"] = busy / l.returnS()
	}
	out["proc.alloc_mib"] = float64(l.allocBytes) / (1 << 20)
	out["proc.gc_pause_ms"] = float64(l.gcPauseNs) / 1e6
	return out, nil
}
