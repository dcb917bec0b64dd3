package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// The page manifest file (pmf). Under content addressing a checkpoint entry
// owns no page bytes of its own: it is the ordered list of object keys that
// reconstructs the guest's memory, page frame by page frame, from the
// host-wide segment pool. The pmf is that list, durably.
//
// File layout (little-endian):
//
//	magic    [4]byte  "VPMF"
//	version  uint16   pmfVersion
//	alg      uint8    ObjectAlgorithm the keys were computed with
//	reserved uint8    zero
//	pageSize uint32   vm.PageSize the guest was paginated with
//	count    uint64   number of page frames (= logical size / pageSize)
//	keys     count × checksum.Size bytes, in page-frame order
//
// The store manifest records each entry's pmf by the hex SHA-256 of the
// whole pmf file. Because object keys are collision resistant, that one
// digest pins the entry's complete logical content: the recovery scan can
// decide "this pmf describes the committed transaction" with a single
// small-file hash instead of re-reading gigabytes of pages.
//
// The keys are also the entry's page checksums under checksum.Default — what
// a restore announces and indexes by — so this file is the persisted
// fingerprint index of §3.3; nothing else caches per-page sums.
const (
	pmfSuffix     = ".pmf"
	pmfVersion    = 1
	pmfHeaderSize = 4 + 2 + 1 + 1 + 4 + 8
)

var pmfMagic = [4]byte{'V', 'P', 'M', 'F'}

// encodePMF renders the page-ordered object keys as pmf file bytes.
func encodePMF(keys []checksum.Sum) []byte {
	out := make([]byte, pmfHeaderSize+len(keys)*checksum.Size)
	copy(out[0:4], pmfMagic[:])
	binary.LittleEndian.PutUint16(out[4:6], pmfVersion)
	out[6] = byte(ObjectAlgorithm)
	binary.LittleEndian.PutUint32(out[8:12], uint32(vm.PageSize))
	binary.LittleEndian.PutUint64(out[12:20], uint64(len(keys)))
	for i := range keys {
		copy(out[pmfHeaderSize+i*checksum.Size:], keys[i][:])
	}
	return out
}

// writePMF atomically persists the entry's page manifest and returns the
// hex SHA-256 of the file — the digest the store manifest commits to.
func writePMF(fsys faultfs.FS, path string, keys []checksum.Sum) (digest string, err error) {
	raw := encodePMF(keys)
	if err := atomicWriteFile(fsys, path, raw, 0o644); err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// loadPMF reads an entry's page manifest, returning the page-ordered object
// keys and the hex SHA-256 of the file bytes for replay against the store
// manifest's record.
func loadPMF(fsys faultfs.FS, path string) (keys []checksum.Sum, digest string, err error) {
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("checkpoint: page manifest: %w", err)
	}
	if keys, err = parsePMF(raw); err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(raw)
	return keys, hex.EncodeToString(sum[:]), nil
}

// parsePMF decodes pmf file bytes into the page-ordered object keys. The keys
// go out on the wire as the next restore's announcement, so every header
// field is checked and the count is bounded by the bytes actually present
// before anything is allocated.
func parsePMF(raw []byte) ([]checksum.Sum, error) {
	if len(raw) < pmfHeaderSize {
		return nil, fmt.Errorf("checkpoint: page manifest truncated (%d bytes)", len(raw))
	}
	if [4]byte(raw[0:4]) != pmfMagic {
		return nil, fmt.Errorf("checkpoint: page manifest has bad magic %q", raw[0:4])
	}
	if v := binary.LittleEndian.Uint16(raw[4:6]); v != pmfVersion {
		return nil, fmt.Errorf("checkpoint: page manifest version %d, want %d", v, pmfVersion)
	}
	if got := checksum.Algorithm(raw[6]); got != ObjectAlgorithm {
		return nil, fmt.Errorf("checkpoint: page manifest keyed with %v, store uses %v", got, ObjectAlgorithm)
	}
	if raw[7] != 0 {
		return nil, fmt.Errorf("checkpoint: page manifest reserved byte is %#x, want 0", raw[7])
	}
	if ps := binary.LittleEndian.Uint32(raw[8:12]); ps != vm.PageSize {
		return nil, fmt.Errorf("checkpoint: page manifest page size %d, want %d", ps, vm.PageSize)
	}
	count := binary.LittleEndian.Uint64(raw[12:20])
	body := raw[pmfHeaderSize:]
	if len(body)%checksum.Size != 0 || count != uint64(len(body)/checksum.Size) {
		return nil, fmt.Errorf("checkpoint: page manifest is %d bytes, header claims %d pages", len(raw), count)
	}
	keys := make([]checksum.Sum, count)
	for i := range keys {
		keys[i] = checksum.Sum(body[i*checksum.Size : (i+1)*checksum.Size])
	}
	return keys, nil
}
