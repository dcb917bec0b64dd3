package checkpoint

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// filledSeedVM is filledVM for fuzz seeding, where no *testing.T exists.
func filledSeedVM(name string, seed int64) (*vm.VM, error) {
	v, err := vm.New(vm.Config{Name: name, MemBytes: 4 * vm.PageSize, Seed: seed})
	if err != nil {
		return nil, err
	}
	return v, v.FillRandom(1.0)
}

// FuzzReadSegmentKeys drives the segment header and trailer reader with
// mutated segment files. Its keys become the pool index recovery trusts, so
// it must reject rather than panic or size the table by a count the file
// cannot hold, and anything it accepts must be exactly a header, payloads and
// the trailer of its own keys, sealed by their hash.
func FuzzReadSegmentKeys(f *testing.F) {
	// Real segments, byte for byte what a save writes: one streamed in full,
	// one written by the commit's catch-up, one half and half.
	s, err := NewStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	for seed, streamed := range []int{4, 0, 2} {
		v, err := filledSeedVM("vm", int64(seed+1))
		if err != nil {
			f.Fatal(err)
		}
		st := s.OpenSave("vm")
		buf := make([]byte, vm.PageSize)
		for i := 0; i < streamed; i++ {
			v.ReadPage(i, buf)
			st.Add(ObjectAlgorithm.Page(buf), buf)
		}
		if _, err := st.Commit(v, EntryComplete, 0, nil); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(s.Dir(), st.seg))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-checksum.Size-1])
		// A tail claiming 2^32-1 objects over a file that holds a few.
		huge := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(huge[len(huge)-4:], 1<<32-1)
		f.Add(huge)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		keys, seal, err := readSegmentKeys(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			return
		}
		if int64(len(raw)) != segmentFileSize(len(keys)) {
			t.Fatalf("accepted %d keys from a file of %d bytes", len(keys), len(raw))
		}
		if !bytes.Equal(raw[:segmentHeaderSize], segmentHeader[:]) {
			t.Fatal("accepted a header that is not the segment header")
		}
		trailer := encodeSegmentTrailer(keys)
		if !bytes.Equal(trailer, raw[len(raw)-len(trailer):]) {
			t.Fatalf("accepted a trailer that is not the encoding of its own %d keys", len(keys))
		}
		if seal != sealOf(trailer) {
			t.Fatalf("seal %s is not the hash of header and trailer", seal)
		}
	})
}
