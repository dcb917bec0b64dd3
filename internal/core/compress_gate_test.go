package core

import (
	"math"
	"math/rand"
	"testing"

	"vecycle/internal/vm"
)

// TestGateClassification checks the entropy gate's verdict on the content
// classes the engine actually moves: random pages (and deflate output —
// already-compressed memory) must skip deflate, while patterned, zero, and
// mixed half-random pages must still attempt it.
func TestGateClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	page := make([]byte, vm.PageSize)

	for trial := 0; trial < 32; trial++ {
		rng.Read(page)
		if compressible(page) {
			t.Fatalf("trial %d: random page classified compressible", trial)
		}
	}

	for j := range page { // the FillCompressible pattern
		page[j] = byte((j % 16) * 7)
	}
	if !compressible(page) {
		t.Error("patterned page classified incompressible")
	}

	for j := range page {
		page[j] = 0
	}
	if !compressible(page) {
		t.Error("zero page classified incompressible")
	}

	rng.Read(page[:vm.PageSize/2]) // half random, half zero: still shrinks 2x
	for j := vm.PageSize / 2; j < vm.PageSize; j++ {
		page[j] = 0
	}
	if !compressible(page) {
		t.Error("half-random page classified incompressible")
	}
}

// TestGateDeterminism pins content-purity: the verdict depends only on the
// page bytes, so repeated calls and calls on a copy agree — the property the
// pinned golden streams rest on.
func TestGateDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	page := make([]byte, vm.PageSize)
	for trial := 0; trial < 64; trial++ {
		// Mix of entropy levels, including near-threshold blends.
		n := (trial * vm.PageSize) / 64
		rng.Read(page[:n])
		for j := n; j < vm.PageSize; j++ {
			page[j] = byte(j)
		}
		first := compressible(page)
		cp := append([]byte(nil), page...)
		for i := 0; i < 4; i++ {
			if compressible(page) != first || compressible(cp) != first {
				t.Fatalf("trial %d: gate verdict unstable", trial)
			}
		}
	}
}

// TestGateEntropyEstimate cross-checks the integer fixed-point entropy
// against a float Shannon computation on the same sampled histogram: the
// Q8 approximation must stay within a tenth of a bit per byte, far inside
// the decision margin between compressible (<6) and random (~7.2) content.
func TestGateEntropyEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	page := make([]byte, vm.PageSize)
	for trial := 0; trial < 32; trial++ {
		n := (trial * vm.PageSize) / 32
		rng.Read(page[:n])
		for j := n; j < vm.PageSize; j++ {
			page[j] = byte(j % 32)
		}

		stride := len(page) / gateSamples
		var hist [256]uint16
		for i := 0; i < gateSamples; i++ {
			hist[page[i*stride]]++
		}
		var floatBits float64
		var q8Sum uint32
		for _, c := range hist {
			if c == 0 {
				continue
			}
			p := float64(c) / gateSamples
			floatBits += -p * math.Log2(p)
			q8Sum += uint32(c) * log2Q8[c]
		}
		q8Bits := (float64(gateSamples*9<<8) - float64(q8Sum)) / (gateSamples * 256)
		if diff := math.Abs(q8Bits - floatBits); diff > 0.1 {
			t.Errorf("trial %d: Q8 entropy %.3f vs float %.3f (diff %.3f)",
				trial, q8Bits, floatBits, diff)
		}
	}
}
