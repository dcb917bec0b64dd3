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
//	payloads count × pageSize bytes, in slot order
//	keys     count × checksum.Size bytes, in the same slot order
//	count    uint32   number of objects in this segment
//
// The key table is a trailer, so slot i's payload sits at segPayloadOffset(i)
// whatever the final count: a segment is written front to back as its pages
// arrive — under a migration's round one (SaveStream) — and the table is known
// only when it is sealed. The seal is the SHA-256 of the header and the
// trailer, the way a CCNx manifest names a run of content by a hash over its
// member names. Payloads need no second digest — each is already named by its
// key — so a save hashes only the table, and recovery checks the seal and then
// every payload against its own key (checkPayloads).
//
// A segment is written under a temp name, synced and renamed into place, and
// recorded in the store manifest as part of the same transaction that makes
// its objects reachable. A segment file the manifest does not know about is an
// interrupted transaction and is deleted by recovery and by GC; a temp file is
// one too, unless it belongs to a save stream still open (Store.inflight).

// ObjectAlgorithm is the checksum algorithm that keys the content-addressed
// store: checksum.Default, the one algorithm every migration speaks, so a
// migration's digest table is the save's key list and an entry's key list is
// the restore's announcement. Object keys deduplicate across VMs and are never
// negotiated, so the algorithm is a collision-resistant one.
const ObjectAlgorithm = checksum.Default

const (
	segmentVersion    = 2
	segmentHeaderSize = 4 + 2 + 2 + 4
	segmentSuffix     = ".seg"
)

var segmentMagic = [4]byte{'V', 'S', 'E', 'G'}

// segmentHeader is the fixed header every segment starts with.
var segmentHeader = func() (h [segmentHeaderSize]byte) {
	copy(h[0:4], segmentMagic[:])
	binary.LittleEndian.PutUint16(h[4:6], segmentVersion)
	binary.LittleEndian.PutUint32(h[8:12], uint32(vm.PageSize))
	return h
}()

// deadSlot is the key table's entry for a slot that holds no object: a page a
// save stream wrote whose content the pool held already by the time it
// committed. Recording it under its key would index one object in two
// segments; recorded as dead, the slot is bytes GC compaction reclaims.
var deadSlot checksum.Sum

// segmentName formats the file name of segment n.
func segmentName(n uint64) string {
	return fmt.Sprintf("seg-%08d%s", n, segmentSuffix)
}

// segPayloadOffset reports the byte offset of slot i's payload.
func segPayloadOffset(i int) int64 {
	return segmentHeaderSize + int64(i)*vm.PageSize
}

// segmentFileSize reports the total byte size of a segment holding count
// objects.
func segmentFileSize(count int) int64 {
	return segPayloadOffset(count) + int64(count)*checksum.Size + 4
}

// segmentBufSize is a segment writer's buffer: payloads gather in it, and a
// run at least this long goes to the file straight from the caller's memory.
const segmentBufSize = 256 << 10

// writebackChunk is the unit a segment writer starts writeback in. Writeback
// trails the write front by one chunk, so the closing fsync waits on at most
// two — and a segment smaller than that, such as a return's stream at low
// churn, never puts the device to work under the round it rides beside.
const writebackChunk = 8 << 20

// encodeSegmentTrailer renders a segment's key table and count.
func encodeSegmentTrailer(keys []checksum.Sum) []byte {
	out := make([]byte, len(keys)*checksum.Size+4)
	for i := range keys {
		copy(out[i*checksum.Size:], keys[i][:])
	}
	binary.LittleEndian.PutUint32(out[len(keys)*checksum.Size:], uint32(len(keys)))
	return out
}

// sealOf is the hex SHA-256 of a segment's header and trailer.
func sealOf(trailer []byte) string {
	h := sha256.New()
	h.Write(segmentHeader[:])
	h.Write(trailer)
	return hex.EncodeToString(h.Sum(nil))
}

// segWriter writes one segment front to back: the header at creation, then
// payloads as they come, then — seal — the trailer, fsync and rename into
// place. It is the one writer of every segment: a save's (streamed or
// written after the ack) and a GC compaction's. Not safe for concurrent use;
// SaveStream serializes its callers.
type segWriter struct {
	fs   faultfs.FS
	path string // final name; written as path+tmpSuffix until sealed
	f    faultfs.File
	wb   writeback
	bw   *bufio.Writer // payload writer: buffered, writeback started as it goes
	keys []checksum.Sum
}

// createSegment starts a segment under path's temp name.
func createSegment(fsys faultfs.FS, path string) (*segWriter, error) {
	f, err := fsys.Create(path + tmpSuffix)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: segment: %w", err)
	}
	w := &segWriter{fs: fsys, path: path, f: f, wb: writeback{f: f}}
	w.bw = bufio.NewWriterSize(&w.wb, segmentBufSize)
	w.bw.Write(segmentHeader[:]) // buffered: cannot fail
	return w, nil
}

// add appends one payload as the next slot, holding key.
func (w *segWriter) add(key checksum.Sum, data []byte) error {
	if _, err := w.bw.Write(data); err != nil {
		return fmt.Errorf("checkpoint: segment payloads: %w", err)
	}
	w.keys = append(w.keys, key)
	return nil
}

// addGuest appends guest pages [start, start+len(keys)) as the next slots,
// straight from v's memory: keys are their digests.
func (w *segWriter) addGuest(v *vm.VM, start int, keys []checksum.Sum) error {
	if err := v.WriteRangeTo(w.bw, start, len(keys)); err != nil {
		return fmt.Errorf("checkpoint: segment payloads: %w", err)
	}
	w.keys = append(w.keys, keys...)
	return nil
}

// seal writes the trailer, makes the segment durable under its final name
// and returns its seal. The kill points "image-written", "image-synced" and
// "image-renamed" bracket its fsync and rename for the kill-point matrix. On
// failure the temp file is closed and removed — except for a simulated
// crash, which leaves the disk as a crash there would.
func (w *segWriter) seal() (seal string, err error) {
	defer func() {
		if err != nil && !killed(err) {
			w.discard()
		}
	}()
	trailer := encodeSegmentTrailer(w.keys)
	if _, err = w.bw.Write(trailer); err != nil {
		return "", fmt.Errorf("checkpoint: segment trailer: %w", err)
	}
	if err = w.bw.Flush(); err != nil {
		return "", fmt.Errorf("checkpoint: segment flush: %w", err)
	}
	if err = kill("image-written"); err != nil {
		return "", err
	}
	if err = w.f.Sync(); err != nil {
		return "", fmt.Errorf("checkpoint: segment sync: %w", err)
	}
	err, w.f = w.f.Close(), nil
	if err != nil {
		return "", fmt.Errorf("checkpoint: segment close: %w", err)
	}
	if err = kill("image-synced"); err != nil {
		return "", err
	}
	if err = w.fs.Rename(w.path+tmpSuffix, w.path); err != nil {
		return "", fmt.Errorf("checkpoint: segment rename: %w", err)
	}
	if err = kill("image-renamed"); err != nil {
		return "", err
	}
	if err = syncDir(w.fs, filepath.Dir(w.path)); err != nil {
		return "", err
	}
	return sealOf(trailer), nil
}

// discard closes the segment, if still open, and unlinks its temp file.
func (w *segWriter) discard() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	w.fs.Remove(w.path + tmpSuffix)
}

// writeback hands a segment's bytes to its file and starts the kernel
// writing back every byte more than a writebackChunk behind the write front,
// so the dirty pages drain while the segment is still being written instead
// of all at the closing fsync.
type writeback struct {
	f            faultfs.File
	off, started int64 // bytes written; bytes whose writeback was started
}

func (w *writeback) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.off += int64(n)
	if behind := w.off - writebackChunk - w.started; behind >= writebackChunk {
		if testHookWriteback != nil {
			testHookWriteback(w.f.Name(), w.started, behind)
		}
		startWriteback(w.f, w.started, behind)
		w.started += behind
	}
	return n, err
}

// testHookWriteback, when non-nil, observes every writeback a segment writer
// starts. Production code never sets it.
var testHookWriteback func(name string, off, n int64)

// readSegmentKeys reads the header and the trailer of r, a segment file of
// size bytes, and returns the keys with the segment's seal. It validates
// magic, version, reserved field and page size, and that the file is exactly
// as long as the count in its tail says — so the table is sized by bytes that
// exist, never by the count alone. Payloads are not read.
func readSegmentKeys(r io.ReaderAt, size int64) (keys []checksum.Sum, seal string, err error) {
	if size < segmentFileSize(0) {
		return nil, "", fmt.Errorf("checkpoint: segment of %d bytes is shorter than an empty one", size)
	}
	var hdr [segmentHeaderSize]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
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
	var tail [4]byte
	if _, err := r.ReadAt(tail[:], size-4); err != nil {
		return nil, "", fmt.Errorf("checkpoint: segment count: %w", err)
	}
	count := int(binary.LittleEndian.Uint32(tail[:]))
	if want := segmentFileSize(count); size != want {
		return nil, "", fmt.Errorf("checkpoint: segment of %d bytes cannot hold %d objects (want %d bytes)", size, count, want)
	}
	trailer := make([]byte, count*checksum.Size+4)
	if _, err := r.ReadAt(trailer, segPayloadOffset(count)); err != nil {
		return nil, "", fmt.Errorf("checkpoint: segment key table: %w", err)
	}
	keys = make([]checksum.Sum, count)
	for i := range keys {
		keys[i] = checksum.Sum(trailer[i*checksum.Size : (i+1)*checksum.Size])
	}
	return keys, sealOf(trailer), nil
}
