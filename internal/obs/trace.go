package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Per-migration event tracing: each migration attempt (either role) is one
// Migration record holding a bounded sequence of span-like Events, one per
// protocol turn — hello, per-round progress, checksum announcement,
// stop-and-copy pause, retry/backoff decisions. Completed
// records are retained in a fixed-size ring (oldest evicted first) and can
// be exported as JSONL or served over the ops endpoint.

// DefaultTraceCapacity is how many completed migrations a TraceLog keeps
// when constructed with capacity <= 0.
const DefaultTraceCapacity = 64

// maxEventsPerMigration bounds one migration's event list; a migration
// that emits more (a pathological round count) keeps the earliest events
// and counts the overflow in DroppedEvents.
const maxEventsPerMigration = 512

// Event is one protocol turn (or scheduler decision) within a migration.
type Event struct {
	// T is the event timestamp.
	T time.Time `json:"t"`
	// Kind names the protocol turn: "hello", "announce", "round",
	// "pause", "resume", "retry", "checkpoint-saved", "done", ...
	// (docs/OBSERVABILITY.md lists all).
	Kind string `json:"kind"`
	// Round is the pre-copy round (or retry attempt for "retry" events);
	// zero when not applicable.
	Round int `json:"round,omitempty"`
	// Pages is the page count the turn covered (pages streamed in a
	// round, pages missing at resume, ...).
	Pages int64 `json:"pages,omitempty"`
	// Bytes is the wire volume attributed to the turn.
	Bytes int64 `json:"bytes,omitempty"`
	// Detail carries free-form context (rejection reasons, retry errors).
	Detail string `json:"detail,omitempty"`
}

// Migration is the trace of one migration attempt as seen from one host.
type Migration struct {
	// ID is unique within the TraceLog's process lifetime.
	ID uint64 `json:"id"`
	// Host is the observing host's name.
	Host string `json:"host,omitempty"`
	// VM is the migrating VM (or virtual disk) name.
	VM string `json:"vm"`
	// Role is "source" or "dest".
	Role string `json:"role"`
	// Peer is the remote address, when known.
	Peer string `json:"peer,omitempty"`
	// Start and End bracket the migration; End is zero while in flight.
	Start time.Time `json:"start"`
	End   time.Time `json:"end,omitempty"`
	// Err is the failure, empty on success (and while in flight).
	Err string `json:"err,omitempty"`
	// Events is the bounded protocol-turn sequence.
	Events []Event `json:"events"`
	// DroppedEvents counts events discarded beyond the per-migration cap.
	DroppedEvents int `json:"dropped_events,omitempty"`
}

// TraceLog retains the traces of recent migrations: every in-flight
// recorder plus a ring of the last-completed records. Safe for concurrent
// use by any number of migrations.
type TraceLog struct {
	mu       sync.Mutex
	capacity int
	nextID   uint64
	active   map[uint64]*Recorder
	recent   []*Migration // completed, oldest first
}

// NewTraceLog creates a log retaining up to capacity completed migrations
// (DefaultTraceCapacity when capacity <= 0).
func NewTraceLog(capacity int) *TraceLog {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceLog{capacity: capacity, active: make(map[uint64]*Recorder)}
}

// Recorder accumulates one migration's events. Event and Finish are safe
// to call from concurrent goroutines; Finish is idempotent.
type Recorder struct {
	log *TraceLog

	mu       sync.Mutex
	m        Migration
	finished bool
}

// Begin opens a trace for one migration attempt and returns its recorder.
func (l *TraceLog) Begin(host, role, vmName, peer string) *Recorder {
	l.mu.Lock()
	l.nextID++
	r := &Recorder{
		log: l,
		m: Migration{
			ID:    l.nextID,
			Host:  host,
			VM:    vmName,
			Role:  role,
			Peer:  peer,
			Start: time.Now(),
		},
	}
	l.active[r.m.ID] = r
	l.mu.Unlock()
	return r
}

// Event appends one protocol-turn record, stamping the time if unset.
func (r *Recorder) Event(e Event) {
	if r == nil {
		return
	}
	if e.T.IsZero() {
		e.T = time.Now()
	}
	r.mu.Lock()
	switch {
	case r.finished:
		// Late events (a worker finishing after the protocol turn that
		// failed the migration) are dropped rather than mutating a record
		// already in the completed ring.
	case len(r.m.Events) >= maxEventsPerMigration:
		r.m.DroppedEvents++
	default:
		r.m.Events = append(r.m.Events, e)
	}
	r.mu.Unlock()
}

// Finish closes the trace, recording err (nil for success), and moves it
// into the completed ring. Calls after the first are no-ops.
func (r *Recorder) Finish(err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.finished {
		r.mu.Unlock()
		return
	}
	r.finished = true
	r.m.End = time.Now()
	if err != nil {
		r.m.Err = err.Error()
	}
	done := r.m // copy under the recorder lock; Events slice is now frozen
	r.mu.Unlock()

	l := r.log
	l.mu.Lock()
	delete(l.active, done.ID)
	l.recent = append(l.recent, &done)
	if over := len(l.recent) - l.capacity; over > 0 {
		l.recent = append([]*Migration(nil), l.recent[over:]...)
	}
	l.mu.Unlock()
}

// snapshot deep-copies a recorder's current state.
func (r *Recorder) snapshot() Migration {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.m
	m.Events = append([]Event(nil), r.m.Events...)
	return m
}

// Recent returns the completed migrations, newest first.
func (l *TraceLog) Recent() []Migration {
	l.mu.Lock()
	out := make([]Migration, 0, len(l.recent))
	for i := len(l.recent) - 1; i >= 0; i-- {
		out = append(out, *l.recent[i])
	}
	l.mu.Unlock()
	return out
}

// Active returns a snapshot of the in-flight migrations, oldest first.
func (l *TraceLog) Active() []Migration {
	l.mu.Lock()
	recs := make([]*Recorder, 0, len(l.active))
	for _, r := range l.active {
		recs = append(recs, r)
	}
	l.mu.Unlock()
	out := make([]Migration, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.snapshot())
	}
	// map iteration order is random; restore chronological order by ID
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// WriteJSONL exports the completed migrations as JSON Lines, oldest first
// — one Migration object per line, the format -trace-out files use.
func (l *TraceLog) WriteJSONL(w io.Writer) error {
	l.mu.Lock()
	recs := make([]*Migration, len(l.recent))
	copy(recs, l.recent)
	l.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, m := range recs {
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	return nil
}
