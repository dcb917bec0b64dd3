package core

import "fmt"

// Migration event hooks. The engine reports each protocol turn to an
// optional per-migration callback so the observability layer
// (internal/obs, wired by sched.Host) can build span-like traces without
// the engine importing it — and, critically, without touching the wire
// format: events are emitted about the stream, never into it.

// Event kinds emitted by the migration engines. docs/OBSERVABILITY.md
// documents each kind's fields.
const (
	// EventHello: session established. Detail carries
	// "have_checkpoint=true|false" as negotiated and, on the pre-copy engines,
	// " manifest=match|announced|none": how the source learns the
	// destination's checksums — by name (the hello's manifest root matched
	// the destination's entry; no announcement crosses the wire), by the bulk
	// announcement, or not at all (no checkpoint, or a baseline migration).
	EventHello = "hello"
	// EventAnnounce: the bulk checksum announcement crossed the wire
	// (sent on the destination, received on the source). Bytes is its
	// size on the wire, AnnounceMsgBytes(Pages); Pages the number of
	// checksums announced.
	EventAnnounce = "announce"
	// EventRestore: a checkpoint was opened and its checksum index is in
	// hand — on the destination its bootstrap (own entry or union), on the
	// source its delta base. It carries no detail: the checksums are the
	// store's own key tables, nothing read and nothing hashed. The kind
	// string is the one traces have always carried at this point — it dates
	// from the fingerprint sidecar file this event once reported on — and
	// trace consumers cut the restore phase at it, so it stays.
	EventRestore = "sidecar"
	// EventRound: one pre-copy round completed. Round is the 1-based
	// round number, Pages the pages streamed (source) or observed dirty
	// (per the round-end frame), Bytes the wire volume of the round as
	// seen from the emitting side. On the source, Detail carries the
	// round's hash work in pages as "hashed=N cached=M" (digested here vs.
	// taken from the guest's digest table) and, when compressing, the
	// entropy gate's hit rate as " gate_attempted=N gate_skipped=M".
	EventRound = "round"
	// EventPause: the source paused the guest for stop-and-copy.
	EventPause = "pause"
	// EventResume: the source resumed/released the guest after the
	// destination acknowledged.
	EventResume = "resume"
	// EventManifest: the post-copy checksum manifest crossed the wire.
	// Bytes is its size; Pages (destination only) the pages still
	// missing after resolving it locally.
	EventManifest = "manifest"
	// EventFetch: the post-copy demand-fetch phase finished. Pages is
	// the number of pages served over the network after resume.
	EventFetch = "fetch"
	// EventUnion: the destination had no servable checkpoint of the
	// arriving VM and announced the union of all resident store content
	// instead (the content-addressed pool — other VMs' checkpoints, older
	// generations, salvage partials). Pages is the number of distinct
	// checksums the union announces; Detail carries "entries=N", the
	// count of resident entries contributing.
	EventUnion = "union"
	// EventSalvage: salvage-checkpoint activity around an interrupted
	// migration. Detail is "written" (the destination persisted the pages
	// an aborted incoming migration had installed; Pages = pages newly
	// installed before the failure, Bytes = salvage image size),
	// "write-failed" (the persist itself failed; best-effort, the
	// migration error stands), or "resumed" (an attempt bootstrapped from
	// a salvage image — emitted on both sides; Pages = image pages on the
	// destination).
	EventSalvage = "salvage"
	// EventDegraded: a rung of the graceful-degradation ladder fired — a
	// best-effort activity (checkpoint persist, salvage write, recycled
	// read, union fold) failed and the migration carried on without it.
	// Detail is "stage:fault" using the Stage* constants and the faultfs
	// fault vocabulary ("eio", "enospc", "torn", ...).
	EventDegraded = "degraded"
	// EventDone: the migration completed from this side's perspective.
	EventDone = "done"
)

// Event is one protocol turn reported to an OnEvent hook.
type Event struct {
	// Kind is one of the Event* constants.
	Kind string
	// Round is the 1-based pre-copy round, zero when not applicable.
	Round int
	// Pages is the page count the turn covered.
	Pages int64
	// Bytes is the wire volume attributed to the turn.
	Bytes int64
	// Frames is the number of page-carrying wire frames the turn covered
	// (EventRound only), each a range frame of one or more pages. Coalescing
	// puts it well below Pages; the two match only when no two adjacent
	// pages shared a treatment.
	Frames int64
	// Detail carries free-form context.
	Detail string
}

// EventFunc observes migration protocol turns. Callbacks run on the
// migration's protocol goroutine and must be fast; nil disables emission.
type EventFunc func(Event)

// helloDetail renders the pre-copy hello event's detail, the same on both
// sides of one migration: a checkpoint in use is either matched by name or
// announced.
func helloDetail(haveCheckpoint, match bool) string {
	manifest := "none"
	switch {
	case match:
		manifest = "match"
	case haveCheckpoint:
		manifest = "announced"
	}
	return fmt.Sprintf("have_checkpoint=%v manifest=%s", haveCheckpoint, manifest)
}

// emit invokes the hook when set.
func (f EventFunc) emit(e Event) {
	if f != nil {
		f(e)
	}
}
