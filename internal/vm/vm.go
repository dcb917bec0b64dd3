// Package vm implements a byte-accurate simulated guest: a page-granular
// memory image with dirty tracking, standing in for the QEMU/KVM guests of
// the paper's prototype (§3). The migration engine in internal/core only
// ever observes pages, dirty bits and checksums, so this substrate exposes
// the identical surface a hypervisor would — and lets integration tests
// assert byte-for-byte equality of source and destination memory after a
// migration. This is the central substitution of the reproduction; see
// DESIGN.md §2 for the full substitution table.
package vm

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"vecycle/internal/checksum"
	"vecycle/internal/dirtytrack"
)

// PageSize is the guest page size in bytes, 4 KiB as in the paper.
const PageSize = 4096

// Config parameterizes a guest.
type Config struct {
	// Name identifies the VM ("vm0"). Migrations verify that source and
	// destination agree on it.
	Name string
	// MemBytes is the guest memory size; it must be a positive multiple of
	// PageSize.
	MemBytes int64
	// Seed drives the guest's workload randomness.
	Seed int64
}

// VM is a simulated guest. All methods are safe for concurrent use: the
// guest workload keeps writing while a live migration reads pages, exactly
// the overlap pre-copy migration is designed to handle.
type VM struct {
	name string
	seed int64

	mu      sync.RWMutex
	mem     [][]byte // guest memory, chunkPages pages per chunk, nil until allocated
	pages   int
	dirty   *dirtytrack.Bitmap
	digests digestTable
	epoch   uint64 // see DigestEpoch
	rng     *rand.Rand
}

// New creates a guest with all-zero memory, allocated up front.
func New(cfg Config) (*VM, error) {
	return create(cfg, false)
}

// NewLazy creates a guest whose memory reads as all zero but is allocated a
// chunk at a time by the chunk's first writer, or at once by Allocate (see
// writeRunLocked and DESIGN.md §5.4). A destination creates a returning guest
// this way, so its hello-ack does not wait for the guest's RAM to be zeroed:
// the restore's span fills allocate the chunks they fill.
func NewLazy(cfg Config) (*VM, error) {
	return create(cfg, true)
}

// create builds a guest. An eager one is allocated in the order New always
// used: the chunks before the digest table.
func create(cfg Config, lazy bool) (*VM, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("vm: empty name")
	}
	if cfg.MemBytes <= 0 || cfg.MemBytes%PageSize != 0 {
		return nil, fmt.Errorf("vm: MemBytes %d must be a positive multiple of %d", cfg.MemBytes, PageSize)
	}
	pages := int(cfg.MemBytes / PageSize)
	dirty, err := dirtytrack.NewBitmap(pages)
	if err != nil {
		return nil, err
	}
	v := &VM{
		name:  cfg.Name,
		seed:  cfg.Seed,
		mem:   make([][]byte, (pages+chunkPages-1)/chunkPages),
		pages: pages,
		dirty: dirty,
	}
	if !lazy {
		v.allocateLocked()
	}
	v.digests = newDigestTable(pages)
	v.rng = rand.New(rand.NewSource(cfg.Seed))
	return v, nil
}

// Name reports the VM's identity.
func (v *VM) Name() string { return v.name }

// NumPages reports the guest memory size in pages.
func (v *VM) NumPages() int { return v.pages }

// MemBytes reports the guest memory size in bytes.
func (v *VM) MemBytes() int64 { return int64(v.pages) * PageSize }

// ReadPage copies page i into dst, which must be at least PageSize long.
func (v *VM) ReadPage(i int, dst []byte) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	copy(dst[:PageSize], v.pageLocked(i))
}

// PageSum computes the checksum of page i under alg without copying. It
// always hashes the bytes — the digest table is never consulted.
func (v *VM) PageSum(i int, alg checksum.Algorithm) checksum.Sum {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return alg.Page(v.pageLocked(i))
}

// WritePage replaces page i with data (PageSize bytes), marking the page
// dirty and forgetting its recorded digest.
func (v *VM) WritePage(i int, data []byte) {
	if len(data) != PageSize {
		panic(fmt.Sprintf("vm: WritePage with %d bytes, want %d", len(data), PageSize))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	copy(v.writeRunLocked(i, 1), data)
	v.dirty.Set(i)
	v.digests.valid[i] = false
}

// InstallPage is WritePage for the migration destination: it updates memory
// without marking the page dirty, since an installed page is by definition
// in sync with the source. The page's recorded digest is forgotten; an
// installer that holds the content's digest uses InstallPageSum.
func (v *VM) InstallPage(i int, data []byte) {
	if len(data) != PageSize {
		panic(fmt.Sprintf("vm: InstallPage with %d bytes, want %d", len(data), PageSize))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	copy(v.writeRunLocked(i, 1), data)
	v.digests.valid[i] = false
	v.epoch++
}

// InstallRange installs len(data)/PageSize contiguous pages starting at
// frame start with one lock acquisition — the vectorized
// install for a run of pages that arrive together.
// len(data) must be a positive multiple of PageSize and the span must fit
// the guest. Like InstallPage it forgets the pages' recorded digests
// (InstallRangeSums keeps them).
func (v *VM) InstallRange(start int, data []byte) {
	if len(data) == 0 || len(data)%PageSize != 0 {
		panic(fmt.Sprintf("vm: InstallRange with %d bytes, want a positive multiple of %d", len(data), PageSize))
	}
	count := len(data) / PageSize
	v.mu.Lock()
	defer v.mu.Unlock()
	v.copyInLocked(start, data)
	clear(v.digests.valid[start : start+count])
	v.epoch++
}

// ReadRange copies count contiguous pages starting at frame start into dst
// (at least count*PageSize bytes) under one lock acquisition — the batched
// counterpart of ReadPage.
func (v *VM) ReadRange(start, count int, dst []byte) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	v.copyOutLocked(start, dst[:count*PageSize])
}

// WriteRangeTo writes count contiguous pages starting at frame start to w
// straight out of guest memory, holding the read lock for its Write calls (one
// per chunk the span touches) —
// the copy-free counterpart of ReadRange a checkpoint save persists runs of
// pages with. w must not call back into the VM, and writers to the guest wait
// for the Write to return, so callers keep count small.
func (v *VM) WriteRangeTo(w io.Writer, start, count int) error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	v.checkSpan(start, count)
	for count > 0 {
		run := v.runLocked(start, count)
		if _, err := w.Write(run); err != nil {
			return err
		}
		start += len(run) / PageSize
		count -= len(run) / PageSize
	}
	return nil
}

// RangeSums computes the checksum of count contiguous pages starting at
// frame start under one lock acquisition, appending to out (reusing its
// capacity). The destination uses it to probe a whole range-sum frame
// against resident content without per-page lock traffic. Like PageSum it
// always hashes the bytes.
func (v *VM) RangeSums(start, count int, alg checksum.Algorithm, out []checksum.Sum) []checksum.Sum {
	out = out[:0]
	v.mu.RLock()
	defer v.mu.RUnlock()
	for i := start; i < start+count; i++ {
		out = append(out, alg.Page(v.pageLocked(i)))
	}
	return out
}

func (v *VM) pageLocked(i int) []byte {
	return v.runLocked(i, 1)
}

// chunkPages is the unit guest memory is allocated in: 1 MiB, the size of a
// migration batch and of a restore span, so the ranges those move stay in one
// chunk. A guest is not one allocation the size of its RAM: a host's heap then
// never has to find a free run that long for an arriving guest, which it often
// could not once small objects had settled into the memory the last departed
// guest freed; it grew instead, and its resident set with it.
const chunkPages = 256

// zeroChunk is what every chunk not yet allocated reads as, in every guest.
// Only readers see it (runLocked); a writer gets its chunk from
// writeRunLocked, so nothing ever writes it. An array, so it is not an
// object on the heap whose layout the guests' chunks share.
var zeroChunk [chunkPages * PageSize]byte

// chunkBytes reports the length of chunk i; the last chunk may be short.
func (v *VM) chunkBytes(i int) int {
	return min(chunkPages, v.pages-i*chunkPages) * PageSize
}

// runLocked returns the guest memory from frame start up to count pages or
// the end of start's chunk, whichever comes first, for reading only: a chunk
// not yet allocated is served from zeroChunk.
func (v *VM) runLocked(start, count int) []byte {
	v.checkSpan(start, 1)
	i := start / chunkPages
	c := v.mem[i]
	if c == nil {
		c = zeroChunk[:v.chunkBytes(i)]
	}
	off := start % chunkPages * PageSize
	return c[off:min(len(c), off+count*PageSize)]
}

// writeRunLocked is runLocked for a writer, which must hold the write lock.
// It allocates start's chunk if nobody has, and no other: a restore's span
// fills (InstallRangeFrom) allocate only the chunks they fill, and a restore
// that succeeds fills every chunk.
func (v *VM) writeRunLocked(start, count int) []byte {
	v.checkSpan(start, 1)
	i := start / chunkPages
	if v.mem[i] == nil {
		v.mem[i] = make([]byte, v.chunkBytes(i))
	}
	return v.runLocked(start, count)
}

// Allocate allocates, in one burst, every chunk of the guest's memory that
// is not allocated yet; the memory still reads as all zero. A destination
// that will not install a checkpoint into a guest made by NewLazy calls it
// before the hello-ack, while the source waits and nothing else allocates.
// Left to the merge's writes, the chunks are allocated inside round one,
// after the wire's buffers have taken the start of the free run the guest
// would otherwise fill, so the guest reaches past its end and the heap more
// often has to grow by a guest's size later (DESIGN.md §5.4).
func (v *VM) Allocate() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.allocateLocked()
}

// allocateLocked allocates every chunk not yet allocated; the caller holds
// the write lock or has not shared v yet.
func (v *VM) allocateLocked() {
	for i := range v.mem {
		if v.mem[i] == nil {
			v.mem[i] = make([]byte, v.chunkBytes(i))
		}
	}
}

// checkSpan panics unless pages [start, start+count) lie in the guest.
func (v *VM) checkSpan(start, count int) {
	if start < 0 || count < 0 || start+count > v.pages {
		panic(fmt.Sprintf("vm: pages [%d, %d) outside a guest of %d pages", start, start+count, v.pages))
	}
}

// copyInLocked copies data (whole pages) into guest memory from frame start.
func (v *VM) copyInLocked(start int, data []byte) {
	v.checkSpan(start, len(data)/PageSize)
	for len(data) > 0 {
		n := copy(v.writeRunLocked(start, len(data)/PageSize), data)
		data = data[n:]
		start += n / PageSize
	}
}

// copyOutLocked fills dst (whole pages) from guest memory at frame start.
func (v *VM) copyOutLocked(start int, dst []byte) {
	v.checkSpan(start, len(dst)/PageSize)
	for len(dst) > 0 {
		n := copy(dst, v.runLocked(start, len(dst)/PageSize))
		dst = dst[n:]
		start += n / PageSize
	}
}

// HarvestDirty atomically returns the current dirty bitmap and clears it —
// the "dirty log read" a pre-copy round performs before re-scanning. It
// advances the digest epoch (DigestEpoch).
func (v *VM) HarvestDirty() *dirtytrack.Bitmap {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := v.dirty.Clone()
	v.dirty.Reset()
	v.epoch++
	return out
}

// DirtyCount reports the number of currently dirty pages without clearing.
func (v *VM) DirtyCount() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.dirty.Count()
}

// MemEqual reports whether two guests hold byte-identical memory — the
// post-migration correctness check.
func (v *VM) MemEqual(other *VM) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	other.mu.RLock()
	defer other.mu.RUnlock()
	if v.pages != other.pages {
		return false
	}
	for start := 0; start < v.pages; start += chunkPages {
		if !bytes.Equal(v.runLocked(start, chunkPages), other.runLocked(start, chunkPages)) {
			return false
		}
	}
	return true
}

// FirstDifference reports the first differing page between two guests, or
// -1 if memory is identical. Intended for test diagnostics.
func (v *VM) FirstDifference(other *VM) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	other.mu.RLock()
	defer other.mu.RUnlock()
	if v.pages != other.pages {
		return 0
	}
	for i := 0; i < v.NumPages(); i++ {
		if !bytes.Equal(v.pageLocked(i), other.pageLocked(i)) {
			return i
		}
	}
	return -1
}

// Fingerprint64 returns a 64-bit FNV hash per page, for cheap whole-memory
// comparisons in tests and experiments.
func (v *VM) Fingerprint64() []uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]uint64, v.NumPages())
	for i := range out {
		s := checksum.FNV.Page(v.pageLocked(i))
		var h uint64
		for b := 0; b < 8; b++ {
			h = h<<8 | uint64(s[b])
		}
		out[i] = h
	}
	return out
}
