package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"vecycle/internal/stats"
)

// metricDef is one line of the metric catalogue. BENCHMARK.json repeats the
// catalogue; the smoke test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees, per workload. Timings are
// medians over the run's timed legs. Each bound is about three times the
// widest spread the metric showed over ten seeds on any workload (README.md
// has the table), at least 5 % and at most the 25 % a driver accepts.
var endToEnd = []metricDef{
	{"return_time_s", "s", "lower", 0.25},
	{"cycle_time_s", "s", "lower", 0.25},
	{"wire_bytes", "B", "lower", 0.05},
	{"cycle_cpu_s", "s", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// informational is printed with the end-to-end pass but carries no bound and
// is not part of the driver's line. Downtime is a user-visible number, but on
// return-churn50-lan the pause waits for whatever the last data write left
// on the shaped link, 0 to 8 ms by content, and its median over a handful of
// legs spreads by a fifth across seeds; it stays gated indirectly, as the
// tail of return_time_s, and is budgeted as core.phase_downtime_s.
var informational = []metricDef{
	{Name: "downtime_ms", Unit: "ms", Better: "lower"},
	{Name: "return_time_p90_s", Unit: "s", Better: "lower"},
}

// perLayer is the layer budget: the traced pass's phase spans, the layer
// replay, and the counts. A layer is a module of internal/.
var perLayer = []metricDef{
	{Name: "sched.phase_dial_hello_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.phase_restore_s", Unit: "s", Better: "lower"},
	{Name: "checksum.phase_announce_s", Unit: "s", Better: "lower"},
	{Name: "core.phase_round1_s", Unit: "s", Better: "lower"},
	{Name: "core.phase_downtime_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.phase_save_src_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.phase_save_dst_s", Unit: "s", Better: "lower"},
	{Name: "sched.phase_unaccounted_s", Unit: "s", Better: "lower"},

	{Name: "vm.read_range_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "vm.install_range_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "checksum.md5_page_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "checksum.sha256_page_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "checksum.set_probe_mprobes_s", Unit: "M/s", Better: "higher"},
	{Name: "checksum.announce_encode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "checksum.announce_decode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "checksum.announce_ratio", Unit: "ratio", Better: "lower"},
	{Name: "checkpoint.save_cold_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "checkpoint.save_warm_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "checkpoint.restore_install_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "checkpoint.restore_index_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.read_block_kpages_s", Unit: "k/s", Better: "higher"},
	{Name: "checkpoint.gc_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "checkpoint.segments", Unit: "count", Better: "lower"},
	{Name: "core.engine_cold_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "core.engine_sum_mpages_s", Unit: "M/s", Better: "higher"},

	{Name: "core.pages_full", Unit: "count", Better: "lower"},
	{Name: "core.pages_sum", Unit: "count", Better: "higher"},
	{Name: "core.reused_in_place", Unit: "count", Better: "higher"},
	{Name: "core.reused_from_disk", Unit: "count", Better: "lower"},
	{Name: "core.page_frames", Unit: "count", Better: "lower"},
	{Name: "core.range_frames", Unit: "count", Better: "lower"},
	{Name: "core.announce_bytes", Unit: "B", Better: "lower"},
	{Name: "core.rounds", Unit: "count", Better: "lower"},
	{Name: "core.wire_writes", Unit: "count", Better: "lower"},
	{Name: "core.wire_turns", Unit: "count", Better: "lower"},
	{Name: "obs.hash_bytes.save_keys", Unit: "B", Better: "lower"},
	{Name: "obs.hash_bytes.save_sidecar", Unit: "B", Better: "lower"},
	{Name: "obs.hash_avoided_bytes", Unit: "B", Better: "higher"},
	{Name: "netem.link_busy_s", Unit: "s", Better: "lower"},
	{Name: "netem.link_util", Unit: "ratio", Better: "higher"},
	{Name: "sched.attempts", Unit: "count", Better: "lower"},
	{Name: "sched.degraded", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_mib", Unit: "MiB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// phaseSumTolerance is how much of the cycle the phase spans may leave
// unaccounted before the traced pass fails.
const phaseSumTolerance = 0.05

// quantile is the q-quantile of vs by linear interpolation; 0 for no values.
func quantile(vs []float64, q float64) float64 {
	cdf, err := stats.NewCDF(vs)
	if err != nil {
		return 0
	}
	return cdf.Quantile(q)
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func overLegs(legs []*leg, f func(*leg) float64) []float64 {
	out := make([]float64, len(legs))
	for i, l := range legs {
		out[i] = f(l)
	}
	return out
}

// endToEndValues reduces the end-to-end pass to one value per end-to-end and
// informational metric.
func (r *result) endToEndValues() map[string]float64 {
	returns := overLegs(r.legs, (*leg).returnS)
	return map[string]float64{
		"return_time_s":     median(returns),
		"cycle_time_s":      median(overLegs(r.legs, (*leg).cycleS)),
		"wire_bytes":        median(overLegs(r.legs, func(l *leg) float64 { return float64(l.wireBytes()) })),
		"cycle_cpu_s":       median(overLegs(r.legs, func(l *leg) float64 { return l.cpu })),
		"peak_rss_mib":      r.peakRSSMiB,
		"setup_s":           median(r.setups),
		"downtime_ms":       median(overLegs(r.legs, (*leg).downtimeS)) * 1e3,
		"return_time_p90_s": quantile(returns, 0.9),
	}
}

// perLayerValues reduces the traced pass: the median over the traced legs of
// every span and count, the replay's numbers, and the tracing overhead. It
// fails when the phase spans do not add up to the cycle, or when a first
// visit recycled anything.
func (r *result) perLayerValues() (map[string]float64, error) {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		var vs []float64
		for _, layer := range r.layers {
			if v, ok := layer[d.Name]; ok {
				vs = append(vs, v)
			}
		}
		out[d.Name] = median(vs)
	}
	for name, v := range r.replay {
		out[name] = v
	}
	if r.attempted > 0 {
		out["sched.attempts"] = float64(r.attempts) / float64(r.attempted)
	}
	out["sched.degraded"] = r.degraded
	if plain := median(r.plainCycle); plain > 0 {
		out["bench.trace_overhead_pct"] = (median(r.tracedCycle) - plain) / plain * 100
	}
	var unaccounted, cycle float64
	for i, layer := range r.layers {
		unaccounted += math.Abs(layer["sched.phase_unaccounted_s"])
		cycle += r.tracedCycle[i]
	}
	switch {
	case unaccounted > phaseSumTolerance*cycle:
		return out, fmt.Errorf("bench: %s: phase spans leave %.4f s of %.4f s cycle time unaccounted (more than %.0f %%)",
			r.w.name, unaccounted, cycle, phaseSumTolerance*100)
	case !r.w.pingPong && (out["core.pages_sum"] != 0 || out["checkpoint.phase_restore_s"] != 0):
		return out, fmt.Errorf("bench: %s: a first visit recycled: %.0f pages went as checksums, restore took %.4f s",
			r.w.name, out["core.pages_sum"], out["checkpoint.phase_restore_s"])
	}
	return out, nil
}

// printMetrics writes one line per metric: name, value, unit.
func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %16.6f %s\n", d.Name, vals[d.Name], d.Unit)
	}
}

// header describes the run a block of metrics belongs to.
func (r *result) header(w io.Writer, pass string) {
	link := "unshaped"
	if r.link.shaped {
		link = fmt.Sprintf("%.0f Mbps, %v per turn", r.link.shape.BytesPerSecond*8/1e6, r.link.shape.Latency)
	}
	fmt.Fprintf(w, "workload %s (%s pass): guest %d MiB, %d pages rewritten between legs, link %s (%s) over TCP loopback\n",
		r.w.name, pass, r.memBytes>>20, r.churnPages, r.link.name, link)
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  timed legs %d  traced legs %d  set-ups %d\n",
		r.attempted, r.failed, len(r.legs), len(r.layers), len(r.setups))
	if r.w.pingPong {
		fmt.Fprintf(w, "  first visit over this link: return_time_s %.6f s\n", r.firstVisitS)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// driverLine is the last line of standard output in driver mode.
func driverLine(w io.Writer, r *result, defs []metricDef, vals map[string]float64, correct bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.attempted, r.failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		line.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}
