package migsim

import (
	"fmt"
	"time"

	"vecycle/internal/core"
	"vecycle/internal/vm"
)

// Mode selects the migration strategy.
type Mode uint8

// Migration strategies of Figure 6/7: stock QEMU pre-copy versus
// checkpoint-assisted VeCycle.
const (
	Baseline Mode = iota + 1
	VeCycle
)

// String returns the figure label of the mode.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "QEMU 2.0"
	case VeCycle:
		return "VeCycle"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Result describes one simulated migration.
type Result struct {
	Mode Mode
	// SourceSendBytes is the traffic leaving the migration source — the
	// right panel of Figure 6 ("Source send traffic").
	SourceSendBytes int64
	// AnnounceBytes is the bulk hash announcement received by the source.
	AnnounceBytes int64
	// PagesFull and PagesSum count the two page message kinds.
	PagesFull int
	PagesSum  int
	// Time is the simulated migration time (Figure 6/7 left panels).
	Time time.Duration
	// Pipeline components, for the §3.4 ablation: the migration cannot
	// finish before the slowest of these stages.
	TransferTime time.Duration
	ChecksumTime time.Duration
	DiskTime     time.Duration
}

// Simulate runs one migration of guest g to a host holding checkpoint cp
// (nil for none) under the given cost model. The simulated guest is idle
// during the migration — matching §4.4/4.5, where all updates happen
// between migrations — so a single copy round suffices.
func Simulate(g *GuestState, cp *Checkpoint, cost CostModel, mode Mode) (Result, error) {
	var res Result
	if err := cost.Validate(); err != nil {
		return res, err
	}
	if mode != Baseline && mode != VeCycle {
		return res, fmt.Errorf("migsim: invalid mode %v", mode)
	}
	if cp != nil && cp.Pages() != g.Pages() {
		return res, fmt.Errorf("migsim: checkpoint has %d pages, guest %d", cp.Pages(), g.Pages())
	}
	res.Mode = mode

	n := g.Pages()
	srcBytes := int64(core.HelloMsgBytes(len(g.name)))
	recycle := mode == VeCycle && cp != nil

	var destHashBytes, diskBytes int64
	if recycle {
		// Destination announces every distinct block checksum.
		res.AnnounceBytes = int64(core.AnnounceMsgBytes(cp.UniqueBlocks()))
		for i, content := range g.contents {
			if _, ok := cp.set[content]; ok {
				res.PagesSum++
				srcBytes += PageSumMsgBytes
				// Listing 1: the destination hashes the resident frame; on
				// mismatch it reads the block from the checkpoint image.
				destHashBytes += vm.PageSize
				if cp.contents[i] != content {
					diskBytes += vm.PageSize
				}
				continue
			}
			res.PagesFull++
			srcBytes += PageFullMsgBytes
		}
		// The source checksums its entire memory during the first round.
		res.ChecksumTime = cost.computeTime(g.MemBytes())
	} else {
		res.PagesFull = n
		srcBytes += int64(n) * PageFullMsgBytes
	}
	srcBytes += core.RoundEndMsgBytes + core.DoneMsgBytes
	res.SourceSendBytes = srcBytes

	res.TransferTime = cost.transferTime(srcBytes) + cost.transferTime(res.AnnounceBytes)
	res.DiskTime = cost.diskTime(diskBytes)
	destTime := cost.computeTime(destHashBytes) + res.DiskTime

	// The copy pipeline overlaps checksumming, transfer and destination
	// work; the slowest stage dominates (§3.4: "the checkpoint-assisted
	// migration will take at least as long as it takes to compute the
	// checksums for the VM's memory"). Handshakes add round trips.
	pipeline := res.TransferTime
	if res.ChecksumTime > pipeline {
		pipeline = res.ChecksumTime
	}
	if destTime > pipeline {
		pipeline = destTime
	}
	res.Time = 2*cost.Link.RTT() + pipeline
	return res, nil
}
