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
	mem     []byte
	dirty   *dirtytrack.Bitmap
	digests digestTable
	epoch   uint64 // see DigestEpoch
	rng     *rand.Rand
}

// New creates a guest with all-zero memory.
func New(cfg Config) (*VM, error) {
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
	return &VM{
		name:    cfg.Name,
		seed:    cfg.Seed,
		mem:     make([]byte, cfg.MemBytes),
		dirty:   dirty,
		digests: newDigestTable(pages),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Name reports the VM's identity.
func (v *VM) Name() string { return v.name }

// NumPages reports the guest memory size in pages.
func (v *VM) NumPages() int { return len(v.mem) / PageSize }

// MemBytes reports the guest memory size in bytes.
func (v *VM) MemBytes() int64 { return int64(len(v.mem)) }

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
	copy(v.pageLocked(i), data)
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
	copy(v.pageLocked(i), data)
	v.digests.valid[i] = false
	v.epoch++
}

// InstallRange installs len(data)/PageSize contiguous pages starting at
// frame start with one lock acquisition and one copy — the vectorized
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
	copy(v.mem[start*PageSize:(start+count)*PageSize], data)
	clear(v.digests.valid[start : start+count])
	v.epoch++
}

// ReadRange copies count contiguous pages starting at frame start into dst
// (at least count*PageSize bytes) under one lock acquisition — the batched
// counterpart of ReadPage: a range-delta frame's base span, a save's rehash.
func (v *VM) ReadRange(start, count int, dst []byte) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	copy(dst[:count*PageSize], v.mem[start*PageSize:(start+count)*PageSize])
}

// WriteRangeTo writes count contiguous pages starting at frame start to w
// straight out of guest memory, holding the read lock for the one Write call —
// the copy-free counterpart of ReadRange a checkpoint save persists runs of
// pages with. w must not call back into the VM, and writers to the guest wait
// for the Write to return, so callers keep count small.
func (v *VM) WriteRangeTo(w io.Writer, start, count int) error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, err := w.Write(v.mem[start*PageSize : (start+count)*PageSize])
	return err
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
	return v.mem[i*PageSize : (i+1)*PageSize]
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
	return bytes.Equal(v.mem, other.mem)
}

// FirstDifference reports the first differing page between two guests, or
// -1 if memory is identical. Intended for test diagnostics.
func (v *VM) FirstDifference(other *VM) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	other.mu.RLock()
	defer other.mu.RUnlock()
	if len(v.mem) != len(other.mem) {
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
