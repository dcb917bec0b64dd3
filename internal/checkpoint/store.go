package checkpoint

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// Store manages the checkpoints a host keeps for the VMs that have visited
// it. The paper's premise (via Birke et al.) is that a VM revisits a small
// set of hosts — often just two — so "storing a checkpoint at each visited
// server" is cheap and pays for itself on the next incoming migration.
//
// The store is content addressed and host wide: every distinct 4 KiB page
// is persisted exactly once per host, in append-only segment files keyed by
// a collision-resistant checksum (object.go), and each checkpoint entry is
// a page manifest referencing those objects (pmf.go). Pages shared between
// VMs — zero pages, kernel text, common libraries — cost their bytes once,
// and a destination can bootstrap a fresh VM from the union of every
// resident entry's content (OpenUnion). Reference counts over the object
// pool drive a GC pass (gc.go) that deletes and compacts dead segments.
//
// The store is crash-consistent: every file reaches its name via
// tmp+fsync+rename, a versioned manifest (committed last, atomically)
// records each entry's page-manifest digest and every live segment's seal,
// and NewStore replays them against the disk — quarantining
// entries a crash left torn and rolling back files no committed transaction
// describes. Entries are complete (a full checkpoint), partial (a salvage
// checkpoint persisted by an interrupted incoming migration, served for
// announce-driven resume only), or quarantined (never served).
type Store struct {
	dir             string
	fs              faultfs.FS
	mu              sync.Mutex
	man             manifestFile
	quota           int64
	verifyOnRestore bool

	// In-memory view of the object pool, rebuilt from the manifest and the
	// segment key tables by the recovery scan — never persisted, so it can
	// not desynchronize across a crash.
	objects map[checksum.Sum]objLoc   // object key → payload location
	refs    map[checksum.Sum]int      // object key → entry references
	keys    map[string][]checksum.Sum // entry → page-ordered object keys
	segKeys map[string][]checksum.Sum // segment file → keys in slot order

	dedupPages int64 // cumulative pages Save skipped writing (already pooled)

	// Segment numbers handed out but not necessarily committed yet (an open
	// save stream's, a compaction's): lastSeg is the highest, so no two
	// writers ever share a file name. inflight names the temp files of the
	// save streams still open, which recovery's temp sweep must leave alone.
	lastSeg  uint64
	inflight map[string]bool

	metrics Metrics
	pending []func(Metrics) // metric callbacks deferred until s.mu is free
}

// objLoc locates one object's payload inside a segment file.
type objLoc struct {
	seg string // segment file name within the store directory
	off int64  // payload byte offset
}

// Metrics receives store-side counter events. The scheduler layer installs
// an implementation that forwards to the host's observability registry.
// Callbacks are invoked only after the store's own lock is released, so an
// implementation may take locks of its own — even ones a concurrent metrics
// scrape holds while calling back into Stats or Usage.
type Metrics interface {
	// DedupPages reports n pages a Save deduplicated against the pool
	// instead of writing.
	DedupPages(n int)
	// GCRun reports a completed GC pass; outcome is "reclaimed" when the
	// pass deleted or compacted at least one segment, "clean" otherwise.
	GCRun(outcome string)
	// HashBytes reports n payload bytes the store digested itself, by stage:
	// "save_keys" is the content-keying rehash a save runs when its caller's
	// digest table is absent or under another algorithm, "restore" the
	// rescan of a Restore or OpenUnion under an algorithm the store does not
	// key by. A migration under ObjectAlgorithm reports neither.
	HashBytes(stage string, n int64)
	// HashAvoidedBytes reports n payload bytes whose digests were supplied
	// precomputed by the caller (SaveWithSums) instead of recomputed.
	HashAvoidedBytes(n int64)
	// CleanupError reports a best-effort cleanup (satellite sweeps, files
	// of a retired format) that failed to remove path. The store carries on —
	// the file is garbage, not state — but silent failures used to hide
	// sick disks, so every one is now counted.
	CleanupError(path string)
	// Degraded reports a rung of the graceful-degradation ladder taken
	// inside the store itself — e.g. a union-bootstrap entry skipped
	// because its segment reads fail. stage and fault use the same label
	// vocabulary as the vecycle_degraded_total metric.
	Degraded(stage, fault string)
}

// SetMetrics installs the metrics sink. Pass nil to disable.
func (s *Store) SetMetrics(m Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = m
}

// deferMetric queues a metric callback for delivery once s.mu is released.
func (s *Store) deferMetricLocked(fn func(Metrics)) {
	if s.metrics != nil {
		s.pending = append(s.pending, fn)
	}
}

// drainMetrics delivers queued metric callbacks. Called by every public
// mutator after releasing the lock.
func (s *Store) drainMetrics() {
	s.mu.Lock()
	m := s.metrics
	pend := s.pending
	s.pending = nil
	s.mu.Unlock()
	if m == nil {
		return
	}
	for _, fn := range pend {
		fn(m)
	}
}

// NewStore opens (creating if needed) a checkpoint store rooted at dir and
// runs the crash-recovery scan before returning.
func NewStore(dir string) (*Store, error) {
	return NewStoreFS(dir, faultfs.OS)
}

// NewStoreFS is NewStore with an explicit filesystem seam. Production code
// passes faultfs.OS (what NewStore does); chaos tests pass an
// injector-wrapped FS so every store op site becomes a fault site.
func NewStoreFS(dir string, fsys faultfs.FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty store directory")
	}
	if fsys == nil {
		fsys = faultfs.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create store: %w", err)
	}
	s := &Store{
		dir:     dir,
		fs:      fsys,
		objects: map[checksum.Sum]objLoc{},
		refs:    map[checksum.Sum]int{},
		keys:    map[string][]checksum.Sum{},
		segKeys: map[string][]checksum.Sum{},

		inflight: map[string]bool{},
	}
	if err := s.loadManifestLocked(); err != nil {
		return nil, err
	}
	if _, err := s.recoverLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// pmfPath reports where the named VM's page manifest lives.
func (s *Store) pmfPath(vmName string) string {
	return filepath.Join(s.dir, sanitize(vmName)+pmfSuffix)
}

// sanitize keeps VM names from escaping the store directory.
func sanitize(name string) string {
	r := strings.NewReplacer("/", "_", "\\", "_", "..", "_", string(os.PathSeparator), "_")
	out := r.Replace(name)
	if out == "" {
		out = "_"
	}
	return out
}

// Has reports whether a servable checkpoint — complete or partial, not
// quarantined — exists for the named VM.
func (s *Store) Has(vmName string) bool {
	state, ok := s.State(vmName)
	return ok && state != EntryQuarantined
}

// State reports the named VM's entry state, ok=false when the store holds no
// entry. Unlike Entry it prices nothing (no unique-bytes scan of the key
// list), so the migration path can ask on every arrival.
func (s *Store) State(vmName string) (EntryState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.man.Entries[sanitize(vmName)]
	return e.State, ok
}

// Mirror reports this host's complete checkpoint of the named VM by name and
// by value: its manifest root and its page-ordered key list (not to be
// modified; an entry's list never changes after its save). A source offers the
// root to a destination; if the destination's own entry has the same root, the
// two hold the same key list and the source's copy stands in for the
// destination's announcement. ok is false when there is no entry or it is not
// a complete one — a salvage partial or a quarantined entry is never offered.
// No file is read.
func (s *Store) Mirror(vmName string) (root [RootSize]byte, keys []checksum.Sum, ok bool) {
	key := sanitize(vmName)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.man.Entries[key]
	if !found || e.State != EntryComplete {
		return root, nil, false
	}
	if root, ok = parseRoot(e.Digest); !ok {
		return root, nil, false
	}
	return root, s.keys[key], true
}

// parseRoot decodes a manifest entry's recorded pmf digest.
func parseRoot(digest string) (root [RootSize]byte, ok bool) {
	raw, err := hex.DecodeString(digest)
	if err != nil || len(raw) != RootSize {
		return root, false
	}
	return [RootSize]byte(raw), true
}

// registerSegmentLocked adds a segment's key table to the in-memory pool
// index. The first segment to hold an object wins its location.
func (s *Store) registerSegmentLocked(name string, keys []checksum.Sum) {
	s.segKeys[name] = keys
	for i, k := range keys {
		if _, ok := s.objects[k]; !ok && k != deadSlot {
			s.objects[k] = objLoc{seg: name, off: segPayloadOffset(i)}
		}
	}
}

// registerEntryLocked records an entry's page keys, bumping refcounts and
// releasing the entry's previous keys, if any. A previous list of the same
// length is diffed: only the positions that differ move a count, so a save
// that rewrote 5 % of a guest touches 5 % of its keys.
func (s *Store) registerEntryLocked(key string, pageKeys []checksum.Sum) {
	old := s.keys[key]
	s.keys[key] = pageKeys
	if len(old) == len(pageKeys) {
		for i, k := range pageKeys {
			if k != old[i] {
				s.unrefLocked(old[i])
				s.refs[k]++
			}
		}
		return
	}
	for _, k := range old {
		s.unrefLocked(k)
	}
	for _, k := range pageKeys {
		s.refs[k]++
	}
}

// reserveSegmentLocked hands out the next segment number and its file name.
// The manifest's NextSeg follows when a segment of that number commits.
func (s *Store) reserveSegmentLocked() (uint64, string) {
	s.lastSeg = max(s.lastSeg, s.man.NextSeg) + 1
	return s.lastSeg, segmentName(s.lastSeg)
}

// unrefLocked releases one reference to k.
func (s *Store) unrefLocked(k checksum.Sum) {
	if s.refs[k] <= 1 {
		delete(s.refs, k)
	} else {
		s.refs[k]--
	}
}

// dropEntryLocked forgets an entry's in-memory key list and refcounts.
func (s *Store) dropEntryLocked(key string) {
	for _, k := range s.keys[key] {
		s.unrefLocked(k)
	}
	delete(s.keys, key)
}

// missingLocked reports the page slots whose objects the pool does not yet
// hold — one slot per distinct missing key, first occurrence wins. When the
// entry pageKeys replaces is servable and as long, only the positions where
// the two lists differ are probed: every key of a servable entry resolves in
// the pool.
func (s *Store) missingLocked(key string, pageKeys []checksum.Sum) []int {
	old := s.keys[key]
	if len(old) != len(pageKeys) || s.man.Entries[key].State == EntryQuarantined {
		old = nil
	}
	var slots []int
	for i, k := range pageKeys {
		if old != nil && old[i] == k {
			continue
		}
		if _, ok := s.objects[k]; !ok {
			slots = append(slots, i)
		}
	}
	// Sized up front: a cold save misses every page, and growing the set
	// through 65 536 keys costs twice what filling it does.
	seen := make(map[checksum.Sum]struct{}, len(slots))
	distinct := slots[:0]
	for _, i := range slots {
		if _, dup := seen[pageKeys[i]]; !dup {
			seen[pageKeys[i]] = struct{}{}
			distinct = append(distinct, i)
		}
	}
	return distinct
}

// uniqueBytesLocked reports the bytes of entry pages backed by objects no
// other entry references.
func (s *Store) uniqueBytesLocked(key string) int64 {
	pageKeys := s.keys[key]
	if pageKeys == nil {
		return 0
	}
	own := map[checksum.Sum]int{}
	for _, k := range pageKeys {
		own[k]++
	}
	var n int64
	for k, c := range own {
		if s.refs[k] == c {
			n += vm.PageSize
		}
	}
	return n
}

// minPagesPerSumWorker keeps the parallel keying scan from fanning out
// over trivially small guests; mirrors the migration engine's checksum
// fan-out granularity.
const minPagesPerSumWorker = 256

// sumChunkPages is the contiguous span one pageSums worker claims per grab:
// large enough that a single ReadRange (one VM lock acquisition, one
// contiguous copy) amortizes across many hashes, small enough that the tail
// of the image still balances across the pool.
const sumChunkPages = 256

// pageSums computes the per-page sums of a live VM. Workers claim contiguous
// sumChunkPages-sized spans off an atomic cursor and copy each span out with
// one ReadRange before hashing — page-at-a-time PageSum calls paid one lock
// round-trip per 4 KiB. This is the rehash a save runs when no digest table
// under ObjectAlgorithm came with it.
func pageSums(v *vm.VM, alg checksum.Algorithm) []checksum.Sum {
	pages := v.NumPages()
	sums := make([]checksum.Sum, pages)
	chunk := sumChunkPages
	if pages < chunk {
		chunk = pages
	}
	var next atomic.Int64
	scan := func() {
		buf := make([]byte, chunk*vm.PageSize)
		for {
			start := int(next.Add(int64(chunk))) - chunk
			if start >= pages {
				return
			}
			cnt := chunk
			if start+cnt > pages {
				cnt = pages - start
			}
			span := buf[:cnt*vm.PageSize]
			v.ReadRange(start, cnt, span)
			for i := 0; i < cnt; i++ {
				sums[start+i] = alg.Page(span[i*vm.PageSize : (i+1)*vm.PageSize])
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > pages/minPagesPerSumWorker {
		workers = pages / minPagesPerSumWorker
	}
	if workers < 2 {
		scan()
		return sums
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scan()
		}()
	}
	wg.Wait()
	return sums
}

// resolveLocked maps page keys to open-file page references, opening each
// backing segment once into open (segment name → handle), which the caller
// owns: its files become the Checkpoint's, closed on its Close, or are closed
// by the caller on failure. Because the fds are opened under the store lock,
// a concurrent GC deleting a compacted segment only unlinks the name — the
// handle keeps serving the old bytes.
func (s *Store) resolveLocked(pageKeys []checksum.Sum, open map[string]faultfs.File) ([]pageRef, error) {
	refs := make([]pageRef, len(pageKeys))
	for i, k := range pageKeys {
		loc, ok := s.objects[k]
		if !ok {
			return nil, fmt.Errorf("checkpoint: object %s missing from pool", k)
		}
		f := open[loc.seg]
		if f == nil {
			var err error
			if f, err = s.fs.Open(filepath.Join(s.dir, loc.seg)); err != nil {
				return nil, fmt.Errorf("checkpoint: open segment: %w", err)
			}
			open[loc.seg] = f
		}
		refs[i] = pageRef{f: f, off: loc.off}
	}
	return refs, nil
}

// openFiles lists the handles resolveLocked opened.
func openFiles(open map[string]faultfs.File) []faultfs.File {
	files := make([]faultfs.File, 0, len(open))
	for _, f := range open {
		files = append(files, f)
	}
	return files
}

func closeAll(files []faultfs.File) {
	for _, f := range files {
		f.Close()
	}
}

// Restore opens the named VM's checkpoint, installing its pages into dst
// (when non-nil) and returning the indexed handle for the merge phase.
// Quarantined entries are refused: a checkpoint that failed its integrity
// check is never served.
//
// Under ObjectAlgorithm the checkpoint's checksums are the entry's page keys,
// already in memory: the open reads no file and hashes nothing, and pages are
// read only to install them into dst. Any other algorithm takes the rescan of
// §3.3 — every page read and hashed under alg — on every open: nothing is
// cached for an algorithm the store does not key by.
//
// Restore is the eager form: it returns once dst holds every page. A caller
// that can overlap the installs with other work opens index-only (dst nil)
// and hands the guest to Checkpoint.InstallInto.
func (s *Store) Restore(vmName string, alg checksum.Algorithm, dst *vm.VM) (*Checkpoint, error) {
	if !alg.Valid() {
		return nil, fmt.Errorf("checkpoint: invalid checksum algorithm")
	}
	key := sanitize(vmName)
	s.mu.Lock()
	e, ok := s.man.Entries[key]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("checkpoint: no checkpoint for %q: %w", vmName, os.ErrNotExist)
	}
	if e.State == EntryQuarantined {
		s.mu.Unlock()
		return nil, fmt.Errorf("checkpoint: %q is quarantined (%s); refusing to serve", vmName, e.Reason)
	}
	pageKeys := s.keys[key]
	open := map[string]faultfs.File{}
	refs, err := s.resolveLocked(pageKeys, open)
	verify := s.verifyOnRestore
	s.mu.Unlock()
	files := openFiles(open)
	fail := func(err error) (*Checkpoint, error) {
		closeAll(files)
		return nil, err
	}
	if err != nil {
		return fail(err)
	}
	if verify {
		if err := s.Verify(vmName); err != nil {
			return fail(err)
		}
	}
	if dst != nil && dst.NumPages() != len(refs) {
		return fail(fmt.Errorf("checkpoint: image has %d pages, VM has %d", len(refs), dst.NumPages()))
	}
	sums, err := s.entrySums(pageKeys, refs, alg, dst)
	s.drainMetrics()
	if err != nil {
		return fail(err)
	}
	s.touch(vmName)
	// Page i lives at refs[i] and hashes to sums[i]; the files are the
	// checkpoint's now, closed by its Close.
	cp := &Checkpoint{files: files, alg: alg, frames: refs, pageSums: sums, partial: e.State == EntryPartial}
	if e.State == EntryComplete {
		cp.root, cp.named = parseRoot(e.Digest)
	}
	return cp, nil
}

// entrySums returns an entry's page-ordered checksums under alg: the page keys
// themselves when alg keys the store, a rescan of every page — accounted as
// the "restore" hash stage — otherwise. dst, when non-nil, receives every page
// and — its digest table — the page's sum under alg. An entry's key list is
// never modified after its save, so the returned slice may alias it. Called
// without s.mu; the caller drains the metric.
func (s *Store) entrySums(pageKeys []checksum.Sum, refs []pageRef, alg checksum.Algorithm, dst *vm.VM) ([]checksum.Sum, error) {
	if alg == ObjectAlgorithm {
		if dst == nil {
			return pageKeys, nil
		}
		return pageKeys, loadPages(refs, alg, pageKeys, false, dst)
	}
	sums := make([]checksum.Sum, len(refs))
	if err := loadPages(refs, alg, sums, true, dst); err != nil {
		return nil, err
	}
	n := int64(len(refs)) * vm.PageSize
	s.mu.Lock()
	s.deferMetricLocked(func(m Metrics) { m.HashBytes("restore", n) })
	s.mu.Unlock()
	return sums, nil
}

// OpenUnion builds a Checkpoint over the union of every servable entry in
// the store — other VMs' checkpoints, older content, salvage partials. The
// destination of a fresh VM's migration (no checkpoint of its own) opens
// the union and announces it, so the source skips every page any resident
// checkpoint holds (the paper's §3.1 redundancy, pooled host-wide). The
// union has no page-frame geometry: PageAt reports no frames, so it can
// never serve as a delta base — matching the partial-checkpoint rules the
// wire protocol already carries.
//
// Returns the union checkpoint and the names of the entries it covers, or
// (nil, nil, nil) when the store holds nothing servable.
//
// The union is an optimization, so a single sick entry must not cost the
// migration its whole bootstrap: an entry whose segments cannot be opened
// or read is skipped — reported through the Metrics Degraded callback with
// stage "union-read" — and the union is built from the rest. Skipped
// entries stay in the store untouched (a transient read error is not
// evidence of corruption; Scrub and Verify decide quarantines).
func (s *Store) OpenUnion(alg checksum.Algorithm) (*Checkpoint, []string, error) {
	if !alg.Valid() {
		return nil, nil, fmt.Errorf("checkpoint: invalid checksum algorithm")
	}
	type unionEntry struct {
		name string
		keys []checksum.Sum
		refs []pageRef
	}
	s.mu.Lock()
	var entries []unionEntry
	open := map[string]faultfs.File{}
	for _, key := range sortedKeys(s.man.Entries) {
		if s.man.Entries[key].State == EntryQuarantined {
			continue
		}
		refs, err := s.resolveLocked(s.keys[key], open)
		if err != nil {
			fault := faultfs.Label(err)
			s.deferMetricLocked(func(m Metrics) { m.Degraded("union-read", fault) })
			continue
		}
		entries = append(entries, unionEntry{name: key, keys: s.keys[key], refs: refs})
	}
	s.mu.Unlock()
	defer s.drainMetrics()
	files := openFiles(open)
	cp := &Checkpoint{alg: alg, files: files, sums: checksum.NewSet(0)}
	var names []string
	for _, ue := range entries {
		// A read error (rescans only) skips the entry: nothing of it has
		// been folded into the union yet.
		sums, err := s.entrySums(ue.keys, ue.refs, alg, nil)
		if err != nil {
			fault := faultfs.Label(err)
			s.mu.Lock()
			s.deferMetricLocked(func(m Metrics) { m.Degraded("union-read", fault) })
			s.mu.Unlock()
			continue
		}
		names = append(names, ue.name)
		for i, sum := range sums {
			if cp.sums.Contains(sum) {
				continue
			}
			cp.sums.Add(sum)
			cp.index.add(sum, ue.refs[i])
		}
	}
	if len(names) == 0 {
		closeAll(files)
		return nil, nil, nil
	}
	return cp, names, nil
}

// Remove deletes the named VM's entry — page manifest and manifest record —
// and releases its object references. The only way out of quarantine.
// Object payloads stay pooled until a GC pass collects the segments nothing
// references anymore.
func (s *Store) Remove(vmName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.removeLocked(vmName)
}

func (s *Store) removeLocked(vmName string) error {
	key := sanitize(vmName)
	_, recorded := s.man.Entries[key]
	if err := s.fs.Remove(s.pmfPath(vmName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("checkpoint: remove page manifest: %w", err)
	}
	s.dropEntryLocked(key)
	if recorded {
		delete(s.man.Entries, key)
		return s.commitManifestLocked()
	}
	return nil
}

// Quarantine marks the named VM's entry as quarantined with the given
// reason: the store keeps its files for forensics but refuses to serve it
// (Restore errors, OpenUnion and announcements exclude it) until Remove
// clears the record. The degradation ladder calls this when a recycled
// page read fails mid-merge — the entry's bytes can no longer be trusted
// to be readable, and excluding it lets the retry converge over the wire.
// Quarantining an already-quarantined entry updates nothing; a missing
// entry is not an error (the caller often cannot tell a union bootstrap
// from an own-entry one).
func (s *Store) Quarantine(vmName, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := sanitize(vmName)
	e, ok := s.man.Entries[key]
	if !ok || e.State == EntryQuarantined {
		return nil
	}
	e.State = EntryQuarantined
	e.Reason = reason
	s.man.Entries[key] = e
	return s.commitManifestLocked()
}

// List reports the VM names with store entries, whatever their state,
// sorted. Use Entries for states and Has for serveability.
func (s *Store) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.listLocked()
}

func (s *Store) listLocked() ([]string, error) {
	names := make([]string, 0, len(s.man.Entries))
	for key := range s.man.Entries {
		names = append(names, key)
	}
	sort.Strings(names)
	return names, nil
}
