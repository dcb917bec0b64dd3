package core

import (
	"fmt"
	"io"
	"time"
)

// Metrics records what a migration cost. The paper reports migration time
// and source send traffic (Figures 6 and 7); the remaining counters break
// the traffic down by protocol element for the ablation benches.
type Metrics struct {
	// BytesSent is the total number of bytes written to the transport by
	// this side — the "source send traffic" of Figure 6 when read on the
	// source.
	BytesSent int64
	// BytesReceived is the total read from the transport.
	BytesReceived int64
	// PagesFull counts pages transferred with payload.
	PagesFull int
	// PagesSum counts pages replaced by a bare checksum.
	PagesSum int
	// PagesKept counts pages round one of a return matched by name left out
	// altogether: on the source, pages whose digest equals the named
	// checkpoint's key at their position, never framed (nor hashed when
	// the guest's digest table already knew that digest); on the
	// destination, the frames round one skipped, which keep the checkpoint's
	// content. They are not in PagesSum or PagesReusedInPlace.
	PagesKept int
	// PagesReusedInPlace counts destination frames whose resident content
	// already matched the received checksum (no disk read needed).
	PagesReusedInPlace int
	// PagesReusedFromDisk counts frames repaired from the checkpoint file
	// via the checksum index (the lseek+read path of Listing 1).
	PagesReusedFromDisk int
	// PageFrames counts the page-carrying frames sent (or, on the
	// destination, received): one range frame per run of same-treatment
	// pages, a lone page being a one-page frame. Pages/PageFrames is the
	// realized coalescing factor.
	PageFrames int
	// RangeFrames counts the subset of PageFrames that carry two or more
	// pages; PageFrames−RangeFrames frames carry one.
	RangeFrames int
	// AnnounceBytes is the size of the bulk hash announcement (§3.2's
	// "additional traffic", 16 MiB for a 4 GiB guest with MD5) as it
	// crossed the wire, tag included: AnnounceMsgBytes of its sum count.
	AnnounceBytes int64
	// Rounds is the number of pre-copy rounds, including the final
	// stop-and-copy round.
	Rounds int
	// HashBytes counts bytes of resident guest memory this side had to
	// digest itself because the guest's digest table (vm.VM) held nothing for
	// the page. On the source it is the encode pass: pages written since
	// their digest was last recorded — every page of a guest that never
	// migrated. On the destination it is the round-end track pass that
	// completes the guest's table: pages no install covered, zero on the
	// normal path (every digest arrives on some frame of round one, or with
	// the checkpoint install for a page round one left to it). Both sides
	// leave what they hash in the guest's table.
	HashBytes int64
	// ProbeHashBytes counts bytes the destination digested to compare a
	// resident page with a checksum from a range-sum frame. Zero after a
	// checkpoint bootstrap, which seeds the table from the sums it restored
	// with; a union bootstrap installs nothing, so there every probed page
	// is hashed.
	ProbeHashBytes int64
	// HashAvoidedBytes counts bytes whose digest came from the guest's
	// digest table instead of being recomputed, over the same passes.
	HashAvoidedBytes int64
	// Duration is the wall-clock migration time: from initiating the
	// migration until the destination acknowledged the final merge. As in
	// the paper, destination setup (checkpoint load) and source checkpoint
	// writing are excluded.
	Duration time.Duration
}

// String summarizes the metrics in one line. Both byte directions render
// through FormatBytes and the field order is fixed, so source- and
// destination-side summaries line up column-for-column in logs (the
// destination's recv mirrors the source's sent).
func (m Metrics) String() string {
	return fmt.Sprintf("sent=%s recv=%s full=%d sum=%d kept=%d rounds=%d time=%v",
		FormatBytes(m.BytesSent), FormatBytes(m.BytesReceived),
		m.PagesFull, m.PagesSum, m.PagesKept, m.Rounds, m.Duration)
}

// FormatBytes renders a byte count in binary units.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// countingWriter wraps a writer, accumulating the bytes written.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// countingReader wraps a reader, accumulating the bytes read.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
