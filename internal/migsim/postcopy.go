package migsim

import (
	"fmt"
	"time"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// PostCopyResult describes a simulated post-copy migration (the Hines &
// Gopalan mode implemented in core, at paper scale).
type PostCopyResult struct {
	// ResumeDelay is the downtime-equivalent: the guest stops at the source
	// when the migration starts and can resume at the destination once the
	// manifest has been transferred and resolved.
	ResumeDelay time.Duration
	// Time is the total migration time including the background fetch of
	// missing pages.
	Time time.Duration
	// MissingPages were fetched over the network after resume.
	MissingPages int
	// SourceSendBytes is the source's total traffic (manifest + pages).
	SourceSendBytes int64
}

// SimulatePostCopy models a post-copy migration of guest g to a host
// holding checkpoint cp (nil for none).
func SimulatePostCopy(g *GuestState, cp *Checkpoint, cost CostModel) (PostCopyResult, error) {
	var res PostCopyResult
	if err := cost.Validate(); err != nil {
		return res, err
	}
	if cp != nil && cp.Pages() != g.Pages() {
		return res, fmt.Errorf("migsim: checkpoint has %d pages, guest %d", cp.Pages(), g.Pages())
	}

	n := g.Pages()
	manifestBytes := int64(8 + 1 + n*checksum.Size)

	// Destination-side manifest resolution: hash each resident frame; read
	// moved blocks from disk.
	var destHashBytes, diskBytes int64
	missing := 0
	for i, content := range g.contents {
		if cp == nil {
			missing++
			continue
		}
		destHashBytes += vm.PageSize
		if cp.contents[i] == content {
			continue
		}
		if _, ok := cp.set[content]; ok {
			diskBytes += vm.PageSize
			continue
		}
		missing++
	}
	res.MissingPages = missing

	// Resume: handshake, manifest transfer, and local resolution. The
	// destination hashes frames while the manifest streams; the slower of
	// the two pipelines dominates, plus the disk reads.
	resolve := cost.computeTime(destHashBytes)
	manifestXfer := cost.transferTime(manifestBytes)
	pipeline := manifestXfer
	if resolve > pipeline {
		pipeline = resolve
	}
	// The source also hashes its memory to build the manifest, overlapped
	// with the transfer.
	srcHash := cost.computeTime(g.MemBytes())
	if srcHash > pipeline {
		pipeline = srcHash
	}
	res.ResumeDelay = cost.Link.RTT() + pipeline + cost.diskTime(diskBytes)

	// Background fetch: pipelined page requests.
	fetchBytes := int64(missing) * PageFullMsgBytes
	res.Time = res.ResumeDelay + cost.Link.RTT() + cost.transferTime(fetchBytes)
	res.SourceSendBytes = manifestBytes + fetchBytes
	return res, nil
}
