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
// other store artifact and recorded — whole-file SHA-256 included — in the
// store manifest as part of the same transaction that makes its objects
// reachable. A segment file the manifest does not know about is an
// interrupted transaction and is deleted by recovery and by GC.

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

// writeSegment writes a segment holding the given object keys, reading slot
// i's payload via page(i, buf). It returns the hex SHA-256 of the written
// file, computed in the same pass. The kill points "image-written",
// "image-synced" and "image-renamed" bracket its fsync and rename for the
// kill-point matrix.
func writeSegment(fsys faultfs.FS, path string, keys []checksum.Sum, page func(i int, buf []byte)) (digest string, err error) {
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
	h := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	var hdr [segmentHeaderSize]byte
	copy(hdr[0:4], segmentMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], segmentVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(vm.PageSize))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(keys)))
	if _, err = bw.Write(hdr[:]); err != nil {
		return "", fmt.Errorf("checkpoint: segment header: %w", err)
	}
	for i := range keys {
		if _, err = bw.Write(keys[i][:]); err != nil {
			return "", fmt.Errorf("checkpoint: segment key %d: %w", i, err)
		}
	}
	buf := make([]byte, vm.PageSize)
	for i := range keys {
		page(i, buf)
		if _, err = bw.Write(buf); err != nil {
			return "", fmt.Errorf("checkpoint: segment payload %d: %w", i, err)
		}
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
	return hex.EncodeToString(h.Sum(nil)), nil
}

// readSegmentKeys parses a segment file's header and key table, validating
// magic, version, page size and total file size. Payloads are not read.
func readSegmentKeys(fsys faultfs.FS, path string) ([]checksum.Sum, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: segment stat: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [segmentHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: segment header: %w", err)
	}
	if [4]byte(hdr[0:4]) != segmentMagic {
		return nil, fmt.Errorf("checkpoint: segment has bad magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != segmentVersion {
		return nil, fmt.Errorf("checkpoint: segment format version %d, want %d", v, segmentVersion)
	}
	if ps := binary.LittleEndian.Uint32(hdr[8:12]); ps != vm.PageSize {
		return nil, fmt.Errorf("checkpoint: segment page size %d, want %d", ps, vm.PageSize)
	}
	count := int(binary.LittleEndian.Uint32(hdr[12:16]))
	if st.Size() != segmentFileSize(count) {
		return nil, fmt.Errorf("checkpoint: segment is %d bytes, want %d for %d objects", st.Size(), segmentFileSize(count), count)
	}
	keys := make([]checksum.Sum, count)
	for i := range keys {
		var raw [checksum.Size]byte
		if _, err := io.ReadFull(br, raw[:]); err != nil {
			return nil, fmt.Errorf("checkpoint: segment key %d: %w", i, err)
		}
		keys[i] = checksum.Sum(raw)
	}
	return keys, nil
}
