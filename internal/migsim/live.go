package migsim

import (
	"fmt"
	"time"

	"vecycle/internal/vm"
)

// Live migration with a guest that keeps writing: the iterative pre-copy
// rounds of §3.1 at paper scale. Each round retransmits the pages dirtied
// while the previous round streamed; the VM pauses for the final round.
// The model exposes pre-copy's classic failure mode — a write rate near
// the link bandwidth stops the rounds from shrinking — and what checkpoint
// recycling (a cheaper first round) and post-copy (bounded downtime) do
// about it.

// LiveOptions tunes the iterative model.
type LiveOptions struct {
	// WriteBytesPerSec is the guest's dirtying rate while migrating.
	WriteBytesPerSec float64
	// StopThresholdPages triggers the final paused round (default 64, as in
	// core.SourceOptions).
	StopThresholdPages int
	// MaxRounds caps the iteration including the final round (default 4).
	MaxRounds int
}

func (o *LiveOptions) setDefaults() {
	if o.StopThresholdPages <= 0 {
		o.StopThresholdPages = 64
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 4
	}
}

// LiveResult extends Result with downtime accounting.
type LiveResult struct {
	Result
	// Rounds is the number of copy rounds, including the final one.
	Rounds int
	// Downtime is the stop-and-copy pause: the final round's transfer time
	// plus the hand-over round trip.
	Downtime time.Duration
}

// SimulateLive runs the iterative pre-copy model. The first round is the
// static Simulate transfer (baseline or recycled); subsequent rounds carry
// the pages dirtied during the previous round at full size.
func SimulateLive(g *GuestState, cp *Checkpoint, cost CostModel, mode Mode, opts LiveOptions) (LiveResult, error) {
	opts.setDefaults()
	var res LiveResult
	if opts.WriteBytesPerSec < 0 {
		return res, fmt.Errorf("migsim: negative write rate")
	}
	first, err := Simulate(g, cp, cost, mode)
	if err != nil {
		return res, err
	}
	res.Result = first
	res.Rounds = 1

	// Round 1 wall time (the handshake RTTs are already in first.Time).
	roundTime := first.Time
	total := first.Time
	dirtyPages := func(d time.Duration) int {
		pages := int(opts.WriteBytesPerSec * d.Seconds() / vm.PageSize)
		if pages > g.Pages() {
			pages = g.Pages()
		}
		return pages
	}

	dirty := dirtyPages(roundTime)
	for res.Rounds < opts.MaxRounds-1 && dirty > opts.StopThresholdPages {
		bytes := int64(dirty) * PageFullMsgBytes
		roundTime = cost.transferTime(bytes)
		total += roundTime
		res.SourceSendBytes += bytes
		res.PagesFull += dirty
		res.Rounds++
		dirty = dirtyPages(roundTime)
	}
	// Final paused round: whatever is dirty now crosses with the guest
	// stopped.
	finalBytes := int64(dirty) * PageFullMsgBytes
	res.Downtime = cost.transferTime(finalBytes) + cost.Link.RTT()
	res.SourceSendBytes += finalBytes
	res.PagesFull += dirty
	res.Rounds++
	res.Time = total + res.Downtime
	return res, nil
}
