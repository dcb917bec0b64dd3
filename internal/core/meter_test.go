package core

import (
	"strings"
	"testing"
	"time"
)

// TestMetricsStringNormalized pins the one-line summary format: both byte
// directions in binary units via FormatBytes and a fixed field order. A
// source's sent=X and the destination's recv=X then agree byte-for-byte in
// logs.
func TestMetricsStringNormalized(t *testing.T) {
	m := Metrics{
		BytesSent:     3 << 20,
		BytesReceived: 1 << 10,
		PagesFull:     7,
		PagesSum:      9,
		PagesKept:     4,
		Rounds:        2,
		Duration:      1500 * time.Millisecond,
	}
	want := "sent=3.00 MiB recv=1.00 KiB full=7 sum=9 kept=4 rounds=2 time=1.5s"
	if got := m.String(); got != want {
		t.Errorf("Metrics.String() = %q, want %q", got, want)
	}

	// The two sides of one migration must summarize symmetrically: the
	// destination view (directions swapped) renders its received volume
	// with the same unit formatting the source used for sent.
	destView := Metrics{BytesSent: m.BytesReceived, BytesReceived: m.BytesSent}
	if !strings.Contains(destView.String(), "recv="+FormatBytes(m.BytesSent)) {
		t.Errorf("dest view %q does not mirror source sent volume", destView.String())
	}
}
