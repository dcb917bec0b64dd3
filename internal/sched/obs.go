package sched

import (
	"context"
	"errors"
	"strings"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/core"
	"vecycle/internal/obs"
	"vecycle/internal/vm"
)

// Host-side observability wiring. The migration engine keeps returning
// plain core.Metrics values; this file observes them at the host seam —
// every completed migration (either role) is folded into a metrics
// registry and a bounded trace log, and an optional ops HTTP listener
// exposes both. Nothing here touches the wire protocol.
//
// All series carry a host label, so several hosts in one process (the
// fleet command, tests) can share one registry and stay distinguishable.

// Histogram buckets, fixed so dashboards are comparable across hosts. The
// ranges bracket the paper's measurements: sub-second LAN migrations of
// small guests up to multi-minute WAN transfers of 6 GiB guests
// (Figures 6-8), downtimes from sub-millisecond to the multi-second
// stop-and-copy of a write-heavy guest.
var (
	durationBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}
	downtimeBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}
	// roundBytesBuckets spans 4 KiB (one page) to 1 GiB per pre-copy
	// round in powers of four.
	roundBytesBuckets = []float64{4096, 16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864, 268435456, 1073741824}
	// roundFramesBuckets spans 1 to ~1M page-carrying frames per round in
	// powers of four; page-range frames collapse a round's frame count
	// well below its page count.
	roundFramesBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
)

// Outcome label values for vecycle_migrations_total.
const (
	outcomeSuccess  = "success"
	outcomeRejected = "rejected"
	outcomeCanceled = "canceled"
	outcomeError    = "error"
)

// hostObs bundles one host's metric handles and trace log.
type hostObs struct {
	host   string
	reg    *obs.Registry
	traces *obs.TraceLog

	migrations     *obs.CounterVec   // vecycle_migrations_total{host,role,outcome}
	active         *obs.GaugeVec     // vecycle_migrations_active{host,role}
	duration       *obs.HistogramVec // vecycle_migration_duration_seconds{host,role}
	downtime       *obs.HistogramVec // vecycle_migration_downtime_seconds{host}
	roundBytes     *obs.HistogramVec // vecycle_migration_round_bytes{host,role}
	roundFrames    *obs.HistogramVec // vecycle_round_frames{host,role}
	rangeFrames    *obs.CounterVec   // vecycle_range_frames_total{host}
	bytes          *obs.CounterVec   // vecycle_migration_bytes_total{host,role,direction}
	pages          *obs.CounterVec   // vecycle_migration_pages_total{host,kind}
	announce       *obs.CounterVec   // vecycle_announce_bytes_total{host}
	retries        *obs.CounterVec   // vecycle_migration_retries_total{host}
	salvage        *obs.CounterVec   // vecycle_salvage_total{host,outcome}
	salvagePg      *obs.CounterVec   // vecycle_salvage_pages_total{host}
	salvageAvoided *obs.CounterVec   // vecycle_salvage_bytes_avoided_total{host}
	hashBytes      *obs.CounterVec   // vecycle_hash_bytes_total{host,stage}
	hashAvoided    *obs.CounterVec   // vecycle_hash_avoided_bytes_total{host}
	dedup          *obs.CounterVec   // vecycle_dedup_pages_total{host}
	gcRuns         *obs.CounterVec   // vecycle_store_gc_total{host,outcome}
	degraded       *obs.CounterVec   // vecycle_degraded_total{host,stage,fault}
}

// newHostObs registers (or re-attaches to) every vecycle metric family in
// reg and wires the scrape-time gauges for h's store and VM table.
func newHostObs(h *Host, reg *obs.Registry, traces *obs.TraceLog) *hostObs {
	o := &hostObs{
		host:   h.name,
		reg:    reg,
		traces: traces,
		migrations: reg.CounterVec("vecycle_migrations_total",
			"Completed migration attempts by role and outcome.",
			"host", "role", "outcome"),
		active: reg.GaugeVec("vecycle_migrations_active",
			"Migrations currently in flight by role.",
			"host", "role"),
		duration: reg.HistogramVec("vecycle_migration_duration_seconds",
			"Wall-clock migration time (checkpoint load/save excluded, as in the paper).",
			durationBuckets, "host", "role"),
		downtime: reg.HistogramVec("vecycle_migration_downtime_seconds",
			"Stop-and-copy downtime: guest pause to destination acknowledgement, source-side.",
			downtimeBuckets, "host"),
		roundBytes: reg.HistogramVec("vecycle_migration_round_bytes",
			"Wire bytes per pre-copy round.",
			roundBytesBuckets, "host", "role"),
		roundFrames: reg.HistogramVec("vecycle_round_frames",
			"Page-carrying wire frames per pre-copy round, each a range frame of one or more pages; pages-per-round over this is the realized coalescing factor.",
			roundFramesBuckets, "host", "role"),
		rangeFrames: reg.CounterVec("vecycle_range_frames_total",
			"Range frames carrying two or more pages handled (sent or received); one-page frames are not counted.",
			"host"),
		bytes: reg.CounterVec("vecycle_migration_bytes_total",
			"Transport bytes moved by migrations, by direction (sent/received).",
			"host", "role", "direction"),
		pages: reg.CounterVec("vecycle_migration_pages_total",
			"Pages handled, by wire encoding or reuse kind (full, sum, kept, reused_in_place, reused_from_disk); kept counts pages round one of a return matched by name left to the checkpoint, on either side.",
			"host", "kind"),
		announce: reg.CounterVec("vecycle_announce_bytes_total",
			"Bulk checksum-announcement traffic (the paper's 'additional traffic', §3.2).",
			"host"),
		retries: reg.CounterVec("vecycle_migration_retries_total",
			"Outgoing migration attempts re-run after transient transport failures.",
			"host"),
		salvage: reg.CounterVec("vecycle_salvage_total",
			"Salvage-checkpoint activity around interrupted migrations, by outcome (written, write-failed, resumed, superseded).",
			"host", "outcome"),
		salvagePg: reg.CounterVec("vecycle_salvage_pages_total",
			"Pages persisted into salvage checkpoints by interrupted incoming migrations.",
			"host"),
		salvageAvoided: reg.CounterVec("vecycle_salvage_bytes_avoided_total",
			"Wire bytes avoided by migrations that resumed from a salvage checkpoint (pages reused out of the partial image, at page-size cost each).",
			"host"),
		hashBytes: reg.CounterVec("vecycle_hash_bytes_total",
			"Payload bytes actually digested, by stage: encode (source pages the guest's digest table did not cover), probe (destination pages hashed to compare with a wire checksum), track (destination round-end pass completing the arrived guest's digest table), save_keys (pages a checkpoint save keyed by hashing because the guest's digest table did not cover them).",
			"host", "stage"),
		hashAvoided: reg.CounterVec("vecycle_hash_avoided_bytes_total",
			"Payload bytes whose digest was recycled from the guest's resident digest table (on encode, probe, track and save) instead of recomputed. A save books each page once: save_keys plus avoided is the guest.",
			"host"),
		dedup: reg.CounterVec("vecycle_dedup_pages_total",
			"Pages a checkpoint save found already resident in the content-addressed pool and referenced instead of rewriting.",
			"host"),
		gcRuns: reg.CounterVec("vecycle_store_gc_total",
			"Store garbage-collection passes the host ran to make room for a save, by outcome (reclaimed, clean).",
			"host", "outcome"),
		degraded: reg.CounterVec("vecycle_degraded_total",
			"Graceful-degradation ladder rungs taken: a best-effort activity (checkpoint persist, salvage, recycled read, union fold) failed and the migration carried on without it, by stage and storage-fault label.",
			"host", "stage", "fault"),
	}
	reg.GaugeVec("vecycle_store_images",
		"Number of checkpoint images in the store.",
		"host").With(h.name).SetFunc(func() float64 {
		names, err := h.store.List()
		if err != nil {
			return 0
		}
		return float64(len(names))
	})
	reg.GaugeVec("vecycle_store_logical_bytes",
		"Sum of resident checkpoint sizes as saved (pages × page size), before content dedup.",
		"host").With(h.name).SetFunc(func() float64 {
		return float64(h.store.Stats().LogicalBytes)
	})
	reg.GaugeVec("vecycle_store_physical_bytes",
		"Bytes of unique page content the pool actually holds; logical over physical is the host dedup ratio.",
		"host").With(h.name).SetFunc(func() float64 {
		return float64(h.store.Stats().PhysicalBytes)
	})
	reg.GaugeVec("vecycle_host_vms",
		"VMs currently resident on the host.",
		"host").With(h.name).SetFunc(func() float64 {
		h.mu.Lock()
		defer h.mu.Unlock()
		return float64(len(h.vms))
	})
	return o
}

// saved books one save commit: the pages it keyed by hashing, the bytes whose
// digests the guest's table supplied (a save books each page once, so the two
// add up to the guest), and the pages it found pooled.
func (o *hostObs) saved(v *vm.VM, c checkpoint.SaveCounts) {
	hashed := int64(c.Hashed) * vm.PageSize
	if hashed > 0 {
		o.hashBytes.With(o.host, "save_keys").Add(float64(hashed))
	}
	if avoided := v.MemBytes() - hashed; avoided > 0 {
		o.hashAvoided.With(o.host).Add(float64(avoided))
	}
	if c.Pooled > 0 {
		o.dedup.With(o.host).Add(float64(c.Pooled))
	}
}

// collected books one GC pass the host ran.
func (o *hostObs) collected(rep checkpoint.GCReport) {
	outcome := "clean"
	if rep.Reclaimed() {
		outcome = "reclaimed"
	}
	o.gcRuns.With(o.host, outcome).Inc()
}

// begin opens a trace for one migration attempt and marks it active.
func (o *hostObs) begin(role, vmName, peer string) *obs.Recorder {
	o.active.With(o.host, role).Add(1)
	return o.traces.Begin(o.host, role, vmName, peer)
}

// eventFunc adapts the engine's protocol-turn callback to the trace
// recorder, teeing the per-round and announcement volumes into the
// registry as they happen (not just at migration end) so a scrape during
// a long WAN migration sees live progress. Pause/resume pairs — emitted
// only on the source of a pre-copy migration that reached stop-and-copy —
// feed the downtime histogram.
func (o *hostObs) eventFunc(rec *obs.Recorder, role string) core.EventFunc {
	var pausedAt time.Time
	return func(e core.Event) {
		rec.Event(obs.Event{
			Kind:   e.Kind,
			Round:  e.Round,
			Pages:  e.Pages,
			Bytes:  e.Bytes,
			Detail: e.Detail,
		})
		switch e.Kind {
		case core.EventRound:
			o.roundBytes.With(o.host, role).Observe(float64(e.Bytes))
			o.roundFrames.With(o.host, role).Observe(float64(e.Frames))
		case core.EventAnnounce:
			o.announce.With(o.host).Add(float64(e.Bytes))
		case core.EventSalvage:
			o.salvage.With(o.host, e.Detail).Inc()
			if e.Detail == "written" {
				o.salvagePg.With(o.host).Add(float64(e.Pages))
			}
		case core.EventDegraded:
			stage, fault := splitDegraded(e.Detail)
			o.degraded.With(o.host, stage, fault).Inc()
		case core.EventPause:
			pausedAt = time.Now()
		case core.EventResume:
			if !pausedAt.IsZero() {
				o.downtime.With(o.host).Observe(time.Since(pausedAt).Seconds())
				pausedAt = time.Time{}
			}
		}
	}
}

// splitDegraded parses an EventDegraded detail ("stage:fault") into its
// metric labels.
func splitDegraded(detail string) (stage, fault string) {
	if i := strings.IndexByte(detail, ':'); i >= 0 {
		return detail[:i], detail[i+1:]
	}
	return detail, "other"
}

// outcome classifies a migration error for the outcome label.
func outcome(err error) string {
	switch {
	case err == nil:
		return outcomeSuccess
	case errors.Is(err, core.ErrRejected):
		return outcomeRejected
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return outcomeCanceled
	default:
		return outcomeError
	}
}

// finish closes the trace and folds the migration's metrics into the
// registry. m is the engine's programmatic result; err decides the
// outcome label. Safe to call with partial metrics on failure.
func (o *hostObs) finish(rec *obs.Recorder, role string, m core.Metrics, err error) {
	rec.Finish(err)
	o.active.With(o.host, role).Add(-1)
	o.migrations.With(o.host, role, outcome(err)).Inc()
	o.bytes.With(o.host, role, "sent").Add(float64(m.BytesSent))
	o.bytes.With(o.host, role, "received").Add(float64(m.BytesReceived))
	o.pages.With(o.host, "full").Add(float64(m.PagesFull))
	o.pages.With(o.host, "sum").Add(float64(m.PagesSum))
	o.pages.With(o.host, "kept").Add(float64(m.PagesKept))
	o.pages.With(o.host, "reused_in_place").Add(float64(m.PagesReusedInPlace))
	o.pages.With(o.host, "reused_from_disk").Add(float64(m.PagesReusedFromDisk))
	o.rangeFrames.With(o.host).Add(float64(m.RangeFrames))
	if m.HashBytes > 0 {
		// One field, two passes: the source's encode, the destination's
		// round-end track pass (core.Metrics.HashBytes).
		stage := "track"
		if role == "source" {
			stage = "encode"
		}
		o.hashBytes.With(o.host, stage).Add(float64(m.HashBytes))
	}
	if m.ProbeHashBytes > 0 {
		o.hashBytes.With(o.host, "probe").Add(float64(m.ProbeHashBytes))
	}
	if m.HashAvoidedBytes > 0 {
		o.hashAvoided.With(o.host).Add(float64(m.HashAvoidedBytes))
	}
	if err == nil {
		o.duration.With(o.host, role).Observe(m.Duration.Seconds())
	}
}

// Registry exposes the host's metrics registry (scraped at /metrics).
func (h *Host) Registry() *obs.Registry { return h.obs.reg }

// Traces exposes the host's migration trace log (served at
// /debug/migrations, exported with TraceLog.WriteJSONL).
func (h *Host) Traces() *obs.TraceLog { return h.obs.traces }

// UseObservability re-homes the host's metrics and traces onto a shared
// registry and trace log — the fleet pattern: every host in the process
// reports into one scrape endpoint, distinguished by the host label. Call
// before any migration runs; either argument may be nil to keep the
// host's own.
func (h *Host) UseObservability(reg *obs.Registry, traces *obs.TraceLog) {
	if reg == nil {
		reg = h.obs.reg
	}
	if traces == nil {
		traces = h.obs.traces
	}
	h.obs = newHostObs(h, reg, traces)
}

// ListenOps starts the ops HTTP listener on addr (e.g. "127.0.0.1:0" or
// ":9090"), serving /metrics (Prometheus text format), /debug/migrations
// (recent trace JSON), /debug/migrations.jsonl, and /debug/pprof. The
// returned address carries the bound port. The listener stops with
// Host.Close.
func (h *Host) ListenOps(addr string) (string, error) {
	srv, err := obs.Serve(addr, obs.Handler(h.obs.reg, h.obs.traces))
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	if h.opsSrv != nil {
		h.opsSrv.Close()
	}
	h.opsSrv = srv
	h.mu.Unlock()
	return srv.Addr(), nil
}
