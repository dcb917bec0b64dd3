// Package checkpoint implements VeCycle's recycled VM checkpoints (§3.3),
// stored content addressed and host wide.
//
// The paper's mechanism: after an outgoing migration the source dumps the
// guest's memory to local disk; a later incoming migration re-reads it,
// computes one checksum per 4 KiB block, records each with its location in
// a sorted list, and answers checksums from the wire by binary search —
// reusing local bytes instead of network ones. This package keeps that
// merge-loop contract (Checkpoint.ReadBlock, answered from a lookup map over
// the entry's page-ordered keys) and adds the layers the paper's evaluation
// assumes but does not spell out:
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
//   - flush (atomic.go): a save's commit returns once its entry is visible,
//     and one store-wide flush behind it makes every pending commit durable;
//     only durable entries are served;
//   - refcounts + GC (store.go, gc.go): dead objects become reclaimed bytes
//     by deleting and compacting segments, never by rewriting manifests;
//   - union bootstrap (Store.OpenUnion): a destination with no checkpoint
//     for the incoming VM announces the union of everything resident, so
//     even a first visit reuses any page some other guest already brought.
//
// A page has one digest: the object key is the page's checksum under
// checksum.Default, the algorithm every migration speaks. So the page
// manifest is the fingerprint index of §3.3 — an open serves its announcement
// straight from the manifest's key list, and a save reads its keys from the
// migration's sum table or the guest's digest table, hashing only the pages
// neither covers. The paper's O(RAM) rescan survives in Store.Restore under
// another algorithm, for the benchmark's layer replay alone.
package checkpoint

import (
	"context"
	"crypto/sha256"
	"fmt"
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

// Checkpoint is an opened checkpoint: its sums and their payload locations,
// from which it derives the announcement set and the checksum→location lookup
// of the merge loop on first use — a returning guest whose peer already names
// the entry by its manifest root needs neither. The backing files are shared
// pool segments; Close releases them all.
//
// An entry's sums are its page-ordered keys, one per page frame; its pages
// reach a guest through InstallInto, in the background, or through
// Store.Restore, which waits. A union (Store.OpenUnion) holds the distinct
// keys of every entry it covers the same way, but they describe no frames: it
// serves blocks by content and installs nothing.
type Checkpoint struct {
	files    segFiles
	alg      checksum.Algorithm
	frames   []pageRef      // payload locations: per page frame, or per distinct key of a union
	pageSums []checksum.Sum // frames[i] hashes to pageSums[i] under alg
	union    bool           // frames are a union's distinct keys, not page frames
	partial  bool           // the entry is a salvage image
	named    bool           // root is set: a complete entry's manifest root
	root     [RootSize]byte

	lookupOnce sync.Once
	byKey      map[checksum.Sum]int // sum → first frame holding it
	setOnce    sync.Once
	sums       *checksum.Set

	load *spanLoad // the background install InstallInto started, if any
}

// RootSize is the byte length of a manifest root: the SHA-256 of an entry's
// page manifest file, the name two hosts compare to learn they hold the same
// key list without exchanging it.
const RootSize = sha256.Size

// Pages reports the number of page frames the checkpoint describes — zero
// for a union checkpoint, which has content but no frame geometry.
func (c *Checkpoint) Pages() int {
	if c.union {
		return 0
	}
	return len(c.frames)
}

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

// lookup finds a block's payload, building the map from the sums on the first
// call. A merge consults it only for pages whose content moved to another
// frame, and a returning guest usually has none, so most opens never build
// it. Of duplicate sums the first frame wins: any copy of identical content
// serves.
func (c *Checkpoint) lookup(sum checksum.Sum) (pageRef, bool) {
	c.lookupOnce.Do(func() {
		c.byKey = make(map[checksum.Sum]int, len(c.pageSums))
		for i := len(c.pageSums) - 1; i >= 0; i-- {
			c.byKey[c.pageSums[i]] = i
		}
	})
	i, ok := c.byKey[sum]
	if !ok {
		return pageRef{}, false
	}
	return c.frames[i], true
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

// CheckInstall reports why InstallInto would refuse dst: the checkpoint must
// have frame geometry matching dst and must have been opened under
// ObjectAlgorithm (its sums are what the guest's digest table records). A
// caller that must know before it commits to the install — the migration
// destination, before its hello-ack — asks here first.
func (c *Checkpoint) CheckInstall(dst *vm.VM) error {
	if c.union {
		return fmt.Errorf("checkpoint: background install of a union, which has no frames")
	}
	if c.alg != ObjectAlgorithm {
		return fmt.Errorf("checkpoint: background install of a checkpoint opened under %v", c.alg)
	}
	if dst.NumPages() != len(c.frames) {
		return fmt.Errorf("checkpoint: image has %d pages, VM has %d", len(c.frames), dst.NumPages())
	}
	return nil
}

// InstallInto starts installing the checkpoint's frames into dst — page bytes
// and, into its digest table, their sums — in ascending restoreSpanPages
// spans on background goroutines, and returns at once. Whoever then writes a
// frame of dst calls AwaitFrames first; Drain waits for the rest. The readers
// stop at the next span once ctx is cancelled. dst must pass CheckInstall,
// and at most one install is started per open.
func (c *Checkpoint) InstallInto(ctx context.Context, dst *vm.VM) error {
	if c.load != nil {
		return fmt.Errorf("checkpoint: install already started")
	}
	if err := c.CheckInstall(dst); err != nil {
		return err
	}
	c.load = startSpanLoad(ctx, c.frames, c.pageSums, 0, dst)
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
	return c.files.close()
}
