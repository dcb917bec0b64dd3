package checkpoint

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"

	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// The content-addressed object layer. The paper's observation that drives
// checkpoint recycling — identical memory content recurs between a VM's
// visits to a host (§3.1) — extends across VMs on the same host: zero
// pages, guest-kernel text and shared-library pages are byte-identical in
// every tenant. The store therefore keys every 4 KiB page by a
// collision-resistant checksum (the object key) and persists each distinct
// page exactly once per host, in append-only segment files. Checkpoint
// entries become page manifests: ordered lists of object keys (pmf.go).
//
// Segment file layout (little-endian), immutable once renamed into place:
//
//	magic    [4]byte  "VSEG"
//	version  uint16   segmentVersion
//	reserved uint16   zero
//	pageSize uint32   vm.PageSize the payloads are cut into
//	count    uint32   number of objects in this segment
//	keys     count × checksum.Size bytes, in slot order
//	payloads count × pageSize bytes, in the same slot order
//
// A segment is written with the same tmp+fsync+rename discipline as every
// other store artifact and recorded in the store manifest as part of the same
// transaction that makes its objects reachable. The record's digest is the
// segment's seal: the SHA-256 of its header and key table, the way a CCNx
// manifest names a run of content by a hash over its member names. Payloads
// need no second digest — each is already named by its key — so a save hashes
// only the table, and recovery checks the seal and then every payload against
// its own key (checkPayloads). A segment file the manifest does not know about
// is an interrupted transaction and is deleted by recovery and by GC.

// ObjectAlgorithm is the checksum algorithm that keys the content-addressed
// store: checksum.Default, the algorithm migrations speak unless told
// otherwise, so a migration's digest table is the save's key list and an
// entry's key list is the restore's announcement. Object keys deduplicate
// across VMs and are never negotiated, so only a collision-resistant (Strong)
// algorithm is acceptable here — weak checksums may only drive baseline
// transfers, never content reuse, least of all a host-wide index.
const ObjectAlgorithm = checksum.Default

const (
	segmentVersion    = 1
	segmentHeaderSize = 4 + 2 + 2 + 4 + 4
	segmentSuffix     = ".seg"
)

var segmentMagic = [4]byte{'V', 'S', 'E', 'G'}

// segmentName formats the file name of segment n.
func segmentName(n uint64) string {
	return fmt.Sprintf("seg-%08d%s", n, segmentSuffix)
}

// segPayloadOffset reports the byte offset of slot i's payload in a segment
// holding count objects.
func segPayloadOffset(count, i int) int64 {
	return segmentHeaderSize + int64(count)*checksum.Size + int64(i)*vm.PageSize
}

// segmentFileSize reports the total byte size of a segment holding count
// objects.
func segmentFileSize(count int) int64 {
	return segPayloadOffset(count, count)
}

// segmentBufSize is writeSegment's write buffer: short runs of payloads
// gather in it, and a run at least this long goes to the file straight from
// the caller's memory.
const segmentBufSize = 256 << 10

// encodeSegmentHead renders a segment's header and key table — the bytes its
// seal covers.
func encodeSegmentHead(keys []checksum.Sum) []byte {
	out := make([]byte, segmentHeaderSize+len(keys)*checksum.Size)
	copy(out[0:4], segmentMagic[:])
	binary.LittleEndian.PutUint16(out[4:6], segmentVersion)
	binary.LittleEndian.PutUint32(out[8:12], uint32(vm.PageSize))
	binary.LittleEndian.PutUint32(out[12:16], uint32(len(keys)))
	for i := range keys {
		copy(out[segmentHeaderSize+i*checksum.Size:], keys[i][:])
	}
	return out
}

// sealOf is the hex SHA-256 of a segment's header and key table.
func sealOf(head []byte) string {
	sum := sha256.Sum256(head)
	return hex.EncodeToString(sum[:])
}

// writeSegment writes a segment holding the given object keys — payloads
// writes their pages to w, in slot order — and returns the segment's seal.
// The payloads are not hashed. The kill points "image-written", "image-synced"
// and "image-renamed" bracket its fsync and rename for the kill-point matrix.
func writeSegment(fsys faultfs.FS, path string, keys []checksum.Sum, payloads func(w io.Writer) error) (seal string, err error) {
	tmp := path + tmpSuffix
	f, err := fsys.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("checkpoint: segment: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			if !killed(err) {
				fsys.Remove(tmp)
			}
		}
	}()
	head := encodeSegmentHead(keys)
	bw := bufio.NewWriterSize(f, segmentBufSize)
	if _, err = bw.Write(head); err != nil {
		return "", fmt.Errorf("checkpoint: segment header: %w", err)
	}
	if err = payloads(bw); err != nil {
		return "", fmt.Errorf("checkpoint: segment payloads: %w", err)
	}
	if err = bw.Flush(); err != nil {
		return "", fmt.Errorf("checkpoint: segment flush: %w", err)
	}
	if err = kill("image-written"); err != nil {
		return "", err
	}
	if err = f.Sync(); err != nil {
		return "", fmt.Errorf("checkpoint: segment sync: %w", err)
	}
	if err = f.Close(); err != nil {
		return "", fmt.Errorf("checkpoint: segment close: %w", err)
	}
	if err = kill("image-synced"); err != nil {
		return "", err
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("checkpoint: segment rename: %w", err)
	}
	if err = kill("image-renamed"); err != nil {
		return "", err
	}
	if err = syncDir(fsys, filepath.Dir(path)); err != nil {
		return "", err
	}
	return sealOf(head), nil
}

// readSegmentKeys reads the header and key table at the start of r, a segment
// file of size bytes, and returns the keys with the segment's seal. It
// validates magic, version, reserved field and page size, and that the file
// can hold the table the header claims — so the table is sized by bytes that
// exist, never by the count alone. Payloads are not read, and their extent is
// the caller's to check against segmentFileSize.
func readSegmentKeys(r io.Reader, size int64) (keys []checksum.Sum, seal string, err error) {
	var hdr [segmentHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, "", fmt.Errorf("checkpoint: segment header: %w", err)
	}
	if [4]byte(hdr[0:4]) != segmentMagic {
		return nil, "", fmt.Errorf("checkpoint: segment has bad magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != segmentVersion {
		return nil, "", fmt.Errorf("checkpoint: segment format version %d, want %d", v, segmentVersion)
	}
	if rsv := binary.LittleEndian.Uint16(hdr[6:8]); rsv != 0 {
		return nil, "", fmt.Errorf("checkpoint: segment reserved field is %#x, want 0", rsv)
	}
	if ps := binary.LittleEndian.Uint32(hdr[8:12]); ps != vm.PageSize {
		return nil, "", fmt.Errorf("checkpoint: segment page size %d, want %d", ps, vm.PageSize)
	}
	count := int(binary.LittleEndian.Uint32(hdr[12:16]))
	if headLen := segmentHeaderSize + int64(count)*checksum.Size; size < headLen {
		return nil, "", fmt.Errorf("checkpoint: segment of %d bytes cannot hold a key table of %d objects", size, count)
	}
	head := make([]byte, segmentHeaderSize+count*checksum.Size)
	copy(head, hdr[:])
	if _, err := io.ReadFull(r, head[segmentHeaderSize:]); err != nil {
		return nil, "", fmt.Errorf("checkpoint: segment key table: %w", err)
	}
	keys = make([]checksum.Sum, count)
	table := head[segmentHeaderSize:]
	for i := range keys {
		keys[i] = checksum.Sum(table[i*checksum.Size : (i+1)*checksum.Size])
	}
	return keys, sealOf(head), nil
}
