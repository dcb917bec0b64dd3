// Package checkpoint implements VeCycle's recycled VM checkpoints (§3.3),
// stored content addressed and host wide.
//
// The paper's mechanism: after an outgoing migration the source dumps the
// guest's memory to local disk; a later incoming migration re-reads it,
// computes one checksum per 4 KiB block, records each with its location in
// a sorted list, and answers checksums from the wire by binary search —
// reusing local bytes instead of network ones. This package keeps that
// merge-loop contract (Index, Checkpoint.ReadBlock) and adds the layers the
// paper's evaluation assumes but does not spell out:
//
//   - object pool (object.go): every distinct page is persisted once per
//     host in append-only segment files, keyed by a collision-resistant
//     checksum — the paper's §3.1 content redundancy, pooled across VMs,
//     generations, and salvage partials instead of duplicated per image;
//   - page manifests (pmf.go): a checkpoint entry is a page-ordered list of
//     object keys, so N near-identical guests cost the disk one copy of
//     their shared pages;
//   - store manifest (manifest.go) + recovery (recovery.go): the
//     crash-consistency layer — every mutation commits atomically via the
//     manifest, and startup replays recorded digests, quarantining torn
//     entries and rolling back uncommitted files;
//   - refcounts + GC (store.go, gc.go): dead objects become reclaimed bytes
//     by deleting and compacting segments, never by rewriting manifests;
//   - union bootstrap (Store.OpenUnion): a destination with no checkpoint
//     for the incoming VM announces the union of everything resident, so
//     even a first visit reuses any page some other guest already brought.
//
// A page has one digest: the object key is the page's checksum under
// checksum.Default, the algorithm migrations speak unless told otherwise. So
// the page manifest is the fingerprint index of §3.3 — Restore serves its
// announcement straight from the manifest's key list, and a save handed the
// migration's digest table hashes nothing. Only a migration under another
// algorithm (an explicit -checksum md5 run) pays the paper's O(RAM) rescan.
package checkpoint

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// pageRef locates one page's payload: a byte offset in an open pool segment.
// The file is held behind the faultfs seam; outside chaos tests it is a bare
// *os.File, so the indirection costs one interface dispatch per ReadAt — a
// syscall-dominated call either way.
type pageRef struct {
	f   faultfs.File
	off int64
}

// indexEntry pairs a block checksum with the location of its payload.
type indexEntry struct {
	sum checksum.Sum
	ref pageRef
}

// Index maps block checksums to payload locations. It is the sorted list of
// §3.3, queried by binary search during the destination's merge loop. The
// sort is deferred to the first Lookup: a merge consults the index only for
// pages whose content moved to another frame, and a returning guest usually
// has none, so most restores never pay for it.
type Index struct {
	entries []indexEntry
	sorted  sync.Once
}

// add records a block. Called in page order, before any Lookup.
func (ix *Index) add(sum checksum.Sum, ref pageRef) {
	ix.entries = append(ix.entries, indexEntry{sum: sum, ref: ref})
}

// sort orders the entries for binary search, keeping the lowest offset for
// duplicate checksums (any copy of identical content works).
func (ix *Index) sort() {
	sort.Slice(ix.entries, func(i, j int) bool {
		c := bytes.Compare(ix.entries[i].sum[:], ix.entries[j].sum[:])
		if c != 0 {
			return c < 0
		}
		return ix.entries[i].ref.off < ix.entries[j].ref.off
	})
}

// Lookup reports the payload location of a block with the given checksum.
// Safe for concurrent use.
func (ix *Index) Lookup(sum checksum.Sum) (ref pageRef, ok bool) {
	ix.sorted.Do(ix.sort)
	i := sort.Search(len(ix.entries), func(i int) bool {
		return bytes.Compare(ix.entries[i].sum[:], sum[:]) >= 0
	})
	if i < len(ix.entries) && ix.entries[i].sum == sum {
		return ix.entries[i].ref, true
	}
	return pageRef{}, false
}

// Len reports the number of indexed blocks.
func (ix *Index) Len() int { return len(ix.entries) }

// Checkpoint is an opened checkpoint: the checksum→location index for the
// merge loop, the announcement sum set, and the page-frame geometry (for
// entries that have one — the union of a whole store does not). The backing
// files are shared pool segments; Close releases them all.
//
// An entry's checkpoint is opened index-only: it holds the page-ordered sums
// and payload locations, and derives the announcement set and the block index
// from them on first use — a returning guest whose peer already names this
// entry by its manifest root needs neither. Its pages reach a guest through
// InstallInto, in the background, or through Store.Restore, which waits.
type Checkpoint struct {
	files    []faultfs.File
	alg      checksum.Algorithm
	frames   []pageRef      // per-page-frame payloads; nil when the checkpoint has no frame geometry
	pageSums []checksum.Sum // frames[i] hashes to pageSums[i] under alg
	partial  bool           // the entry is a salvage image
	named    bool           // root is set: a complete entry's manifest root
	root     [RootSize]byte

	indexOnce sync.Once
	index     Index
	setOnce   sync.Once
	sums      *checksum.Set

	load *spanLoad // the background install InstallInto started, if any
}

// RootSize is the byte length of a manifest root: the SHA-256 of an entry's
// page manifest file, the name two hosts compare to learn they hold the same
// key list without exchanging it.
const RootSize = sha256.Size

// Pages reports the number of page frames the checkpoint describes — zero
// for a union checkpoint, which has content but no frame geometry.
func (c *Checkpoint) Pages() int { return len(c.frames) }

// Algorithm reports the checksum algorithm the index was built with.
func (c *Checkpoint) Algorithm() checksum.Algorithm { return c.alg }

// Partial reports that the entry behind this checkpoint is a salvage image,
// not a complete guest state.
func (c *Checkpoint) Partial() bool { return c.partial }

// Root reports the manifest root of the entry this checkpoint was opened
// from — read under the same store-lock acquisition as its key list and
// segment handles, so it names exactly the sums this checkpoint serves.
// ok is false for anything a peer must not match by name: a salvage partial,
// a union, an entry whose recorded digest does not parse.
func (c *Checkpoint) Root() (root [RootSize]byte, ok bool) {
	return c.root, c.named
}

// IndexSource reports where this open's checksums came from, as the label the
// restore trace event carries: "keys" when the index is the store's own key
// tables (opened under ObjectAlgorithm: no page read, no hash), "rescan" when
// every page was read and hashed under another algorithm.
func (c *Checkpoint) IndexSource() string {
	if c.alg == ObjectAlgorithm {
		return "keys"
	}
	return "rescan"
}

// SumSet returns the set of block checksums present in the checkpoint — the
// content of the destination's hash announcement, built on the first call.
// The caller must not mutate it.
func (c *Checkpoint) SumSet() *checksum.Set {
	c.setOnce.Do(func() {
		if c.sums == nil { // a union's set is assembled by OpenUnion
			c.sums = checksum.NewSet(len(c.pageSums))
			c.sums.AddAll(c.pageSums)
		}
	})
	return c.sums
}

// lookup finds a block's payload, building the index from the page-ordered
// sums on the first call (a union's index is assembled by OpenUnion).
func (c *Checkpoint) lookup(sum checksum.Sum) (pageRef, bool) {
	c.indexOnce.Do(func() {
		if c.index.entries == nil {
			c.index.entries = make([]indexEntry, len(c.pageSums))
			for i, s := range c.pageSums {
				c.index.entries[i] = indexEntry{sum: s, ref: c.frames[i]}
			}
		}
	})
	return c.index.Lookup(sum)
}

// blockPool recycles ReadBlock buffers: the destination merge loop resolves
// one block per reused-from-disk page, and a per-call 4 KiB allocation is
// pure GC pressure on that hot path. Buffers return via Release.
var blockPool = sync.Pool{New: func() interface{} {
	return make([]byte, vm.PageSize)
}}

// ReadBlock returns the content of a block with the given checksum, or
// ok=false if no such block exists. This is the lseek+read of Listing 1,
// executed when an incoming checksum does not match the page frame's
// current content. ReadBlock is safe for concurrent use (reads go through
// ReadAt). The returned buffer may be recycled by passing it to Release
// once its content has been consumed.
func (c *Checkpoint) ReadBlock(sum checksum.Sum) (data []byte, ok bool, err error) {
	ref, ok := c.lookup(sum)
	if !ok {
		return nil, false, nil
	}
	buf := blockPool.Get().([]byte)
	if _, err := ref.f.ReadAt(buf, ref.off); err != nil {
		blockPool.Put(buf) //nolint:staticcheck // SA6002: 4 KiB slice, header alloc is fine
		return nil, true, fmt.Errorf("checkpoint: read block at %d: %w", ref.off, err)
	}
	return buf, true, nil
}

// Release returns a buffer obtained from ReadBlock to the internal pool.
// The caller must not touch data afterwards. Releasing is optional — an
// unreleased buffer is simply garbage-collected.
func (c *Checkpoint) Release(data []byte) {
	if cap(data) < vm.PageSize {
		return
	}
	blockPool.Put(data[:vm.PageSize]) //nolint:staticcheck // SA6002
}

// PageAt returns the checkpoint's content for page frame i — the content
// the destination's RAM holds right after its checkpoint bootstrap. The
// source of a delta-encoded migration reads its own mirror of the
// destination's checkpoint through this method. ok is false when the frame
// is outside the image, or when the checkpoint has no frame geometry at all
// (a union bootstrap — which is exactly why a union is never a delta base).
func (c *Checkpoint) PageAt(frame int) (data []byte, ok bool, err error) {
	if frame < 0 || frame >= len(c.frames) {
		return nil, false, nil
	}
	ref := c.frames[frame]
	buf := make([]byte, vm.PageSize)
	if _, err := ref.f.ReadAt(buf, ref.off); err != nil {
		return nil, true, fmt.Errorf("checkpoint: read frame %d: %w", frame, err)
	}
	return buf, true, nil
}

// InstallInto starts installing the checkpoint's frames into dst — page bytes
// and, into its digest table, their sums — in ascending restoreSpanPages
// spans on background goroutines, and returns at once. Whoever then writes a
// frame of dst calls AwaitFrames first; Drain waits for the rest. The readers
// stop at the next span once ctx is cancelled. The checkpoint must have frame
// geometry matching dst, and at most one install is started per open.
func (c *Checkpoint) InstallInto(ctx context.Context, dst *vm.VM) error {
	if c.load != nil {
		return fmt.Errorf("checkpoint: install already started")
	}
	if dst.NumPages() != len(c.frames) {
		return fmt.Errorf("checkpoint: image has %d pages, VM has %d", len(c.frames), dst.NumPages())
	}
	c.load = startSpanLoad(ctx, c.frames, c.alg, c.pageSums, false, dst)
	return nil
}

// AwaitFrames blocks until the background install has finished every span
// touching frames [start, start+count), so the caller's write lands on top of
// checkpoint content, never under it. It returns the install's failure — a
// page read error, or the context's — when such a span will not arrive. With
// no install under way (a nil checkpoint, a union, an eager Restore) there is
// nothing to wait for.
func (c *Checkpoint) AwaitFrames(start, count int) error {
	if c == nil || c.load == nil {
		return nil
	}
	return c.load.await(start, count)
}

// Drain waits for the background install to finish or stop and reports why
// it stopped short, nil when every frame was installed (or none was asked
// for). After Drain nothing writes to the guest on this checkpoint's behalf.
func (c *Checkpoint) Drain() error {
	if c == nil || c.load == nil {
		return nil
	}
	return c.load.drain()
}

// Close stops a background install still running, waits for it, and releases
// the underlying files.
func (c *Checkpoint) Close() error {
	if c.load != nil {
		c.load.cancel()
		_ = c.load.drain() // the caller has the outcome already, or is abandoning it
	}
	var first error
	for _, f := range c.files {
		if err := f.Close(); err != nil && first == nil {
			first = fmt.Errorf("checkpoint: close: %w", err)
		}
	}
	return first
}
