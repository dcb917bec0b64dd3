package checkpoint

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vecycle/internal/vm"
)

// FuzzParsePMF drives the page-manifest parser with mutated manifests. What
// it returns is announced to a peer and indexes the pool, so it must reject
// rather than panic or over-allocate, and anything it accepts must be exactly
// one manifest: re-encoding the keys reproduces the input.
func FuzzParsePMF(f *testing.F) {
	// A real manifest, byte for byte what a save of this guest writes: random
	// pages, the zero page and a duplicate.
	v, err := vm.New(vm.Config{Name: "seed", MemBytes: 8 * vm.PageSize, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	if err := v.FillRandom(0.75); err != nil {
		f.Fatal(err)
	}
	real := encodePMF(pageSums(v, ObjectAlgorithm))
	f.Add(real)
	f.Add(real[:pmfHeaderSize+3])
	f.Add(encodePMF(nil))
	// A header-only file claiming 2^60 pages: 16 × 2^60 wraps to zero, so a
	// size check done in int arithmetic accepts it.
	huge := append([]byte(nil), real[:pmfHeaderSize]...)
	binary.LittleEndian.PutUint64(huge[12:20], 1<<60)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, raw []byte) {
		keys, err := parsePMF(raw)
		if err != nil {
			return
		}
		if !bytes.Equal(encodePMF(keys), raw) {
			t.Errorf("accepted %d bytes that are not the encoding of their own %d keys", len(raw), len(keys))
		}
	})
}
