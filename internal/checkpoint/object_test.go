package checkpoint

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
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

// FuzzReadSegmentKeys drives the segment header and key-table reader with
// mutated segment files. Its keys become the pool index recovery trusts, so
// it must reject rather than panic or size the table by a count the file
// cannot hold, and anything it accepts must be exactly that header and key
// table, sealed by their hash.
func FuzzReadSegmentKeys(f *testing.F) {
	// Real segments, byte for byte what a save writes.
	dir := f.TempDir()
	for _, n := range []int{1, 3} {
		keys := make([]checksum.Sum, n)
		for i := range keys {
			keys[i] = checksum.Sum{0: byte(i + 1), 15: byte(n)}
		}
		path := filepath.Join(dir, segmentName(uint64(n)))
		payloads := func(w io.Writer) error {
			_, err := w.Write(bytes.Repeat([]byte{byte(n)}, n*vm.PageSize))
			return err
		}
		if _, err := writeSegment(faultfs.OS, path, keys, payloads); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:segmentHeaderSize+checksum.Size-1])
		// A header claiming 2^32-1 objects over a file that holds one.
		huge := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(huge[12:16], 1<<32-1)
		f.Add(huge)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		keys, seal, err := readSegmentKeys(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			return
		}
		head := encodeSegmentHead(keys)
		if !bytes.Equal(head, raw[:len(head)]) {
			t.Fatalf("accepted a head that is not the encoding of its own %d keys", len(keys))
		}
		if seal != sealOf(head) {
			t.Fatalf("seal %s is not the hash of the head", seal)
		}
	})
}
