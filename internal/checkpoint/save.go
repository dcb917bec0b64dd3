package checkpoint

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// Saves. Every save — a migration's, streamed while its pages cross the wire,
// a plain one after the fact, a salvage, and GC's compactions below it — goes
// through one segment writer (segWriter), and every checkpoint save through
// one commit (SaveStream.Commit). A save opens a stream for the VM, which
// reserves a segment number; pages the caller hands it as they pass (Add)
// become the segment's first slots; Commit appends whatever the pool still
// misses straight from guest memory, seals the segment and commits the page
// manifest and the store manifest, in that order. A save with nothing
// streamed is a commit that writes every missing page itself.

// ErrStreamBroken marks the commit of a save stream one of whose writes
// failed: nothing was saved and the stream's file is gone. Saving again
// through a fresh stream writes every missing page after the fact.
var ErrStreamBroken = errors.New("checkpoint: save stream broken")

// Save checkpoints the VM's memory on this host, replacing any previous
// checkpoint of the same VM — including a salvage checkpoint, which a
// completed migration supersedes. Pages whose content the object pool
// already holds (from any VM) are referenced, not rewritten. When a quota is
// set, dead segments are collected and then least-recently-used entries are
// evicted until the new pages fit.
func (s *Store) Save(source *vm.VM) error {
	return s.SaveWithSums(source, 0, nil)
}

// SaveWithSums is Save with a caller-supplied per-page digest table —
// typically the sums a migration recorded (core.DestResult.PageSums on
// arrival, core.SumTable on departure). A table under ObjectAlgorithm becomes
// the entry's page keys as it stands and the save hashes nothing.
//
// The caller asserts sums[i] is alg's digest of the VM's current page i. A
// wrong table poisons the entry (content keys decide dedup identity and are
// what the next restore announces), so hand over only tables the migration
// protocol itself vouched for. A nil, short or other-algorithm table is not
// an error — the save rehashes the guest once, counted under the save_keys
// stage, so callers need no special-casing for failed or untracked
// migrations or for runs under another checksum.
func (s *Store) SaveWithSums(source *vm.VM, alg checksum.Algorithm, sums []checksum.Sum) error {
	_, err := s.OpenSave(source.Name()).Commit(source, EntryComplete, alg, sums)
	return err
}

// SaveSalvage persists the VM's memory as a salvage checkpoint: a partial
// entry holding whatever pages an interrupted incoming migration had
// installed, with its own page manifest. The next incoming attempt announces
// its page sums like any checkpoint, so the source resends only what is
// missing.
func (s *Store) SaveSalvage(source *vm.VM) error {
	_, err := s.OpenSave(source.Name()).Commit(source, EntryPartial, 0, nil)
	return err
}

// SaveCounts reports where the pages a committed save was missing came from.
type SaveCounts struct {
	// Streamed counts the missing pages the stream had already written.
	Streamed int
	// CaughtUp counts the missing pages the commit wrote from guest memory.
	CaughtUp int
}

// SaveStream is one save of a VM's checkpoint in progress: a segment written
// front to back while the migration moves the pages, made the VM's entry by
// Commit or dropped by Abort. Add and Commit are safe for concurrent use.
//
// A stream's slots are content addressed, so one can go dead but never wrong:
// a page the migration wrote again later, or whose content the pool already
// held, is a slot no entry references, which GC compaction reclaims.
type SaveStream struct {
	s   *Store
	key string // the VM's store key
	n   uint64 // reserved segment number
	seg string // and its file name

	mu   sync.Mutex
	w    *segWriter                // created by the first page written
	have map[checksum.Sum]struct{} // keys of the slots written so far
	err  error                     // first write failure: the stream writes no more
	done bool                      // committed or aborted
}

// OpenSave opens a save stream for the named VM. It reserves the stream's
// segment number and touches no file: the segment is created by the first
// page written. The caller must Commit or Abort it.
func (s *Store) OpenSave(vmName string) *SaveStream {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, seg := s.reserveSegmentLocked()
	s.inflight[seg+tmpSuffix] = true
	return &SaveStream{s: s, key: sanitize(vmName), n: n, seg: seg, have: map[checksum.Sum]struct{}{}}
}

// Add appends one page the caller holds — data, whose ObjectAlgorithm digest
// is key — to the stream's segment. A key already written is skipped. The
// write is synchronous, through the writer's buffer; a failure breaks the
// stream, which then writes nothing more and fails its Commit with
// ErrStreamBroken. Add never fails its caller: a sick disk costs the
// checkpoint, never the migration.
func (st *SaveStream) Add(key checksum.Sum, data []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.done || st.err != nil {
		return
	}
	if _, dup := st.have[key]; dup {
		return
	}
	w, err := st.writer()
	if err == nil {
		err = w.add(key, data)
	}
	if err != nil {
		st.err = err
		return
	}
	st.have[key] = struct{}{}
}

// writer returns the stream's segment writer, creating the file on first use.
func (st *SaveStream) writer() (*segWriter, error) {
	if st.w == nil {
		w, err := createSegment(st.s.fs, filepath.Join(st.s.dir, st.seg))
		if err != nil {
			return nil, err
		}
		st.w = w
	}
	return st.w, nil
}

// Commit makes the stream v's checkpoint in the given state, replacing any
// previous entry of the VM. alg and sums are SaveWithSums's digest table: the
// guest's page keys when they are ObjectAlgorithm digests of every page, else
// the commit rehashes the guest.
//
// It computes the pages the pool is missing — against the pool and the entry
// it replaces, as any save does — and appends those the stream has not
// written, straight from guest memory. Then it writes the trailer, fsyncs,
// and commits the page manifest and the store manifest. Streamed slots the
// entry does not need are dead on arrival; a segment holding nothing the entry
// needs is not kept at all. A broken stream commits nothing and fails with
// ErrStreamBroken. Commit or Abort once; later calls fail or do nothing.
func (st *SaveStream) Commit(v *vm.VM, state EntryState, alg checksum.Algorithm, sums []checksum.Sum) (SaveCounts, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.done {
		return SaveCounts{}, errors.New("checkpoint: save stream already committed or aborted")
	}
	if st.err != nil {
		st.dropLocked()
		return SaveCounts{}, fmt.Errorf("%w: %w", ErrStreamBroken, st.err)
	}
	st.done = true
	pageKeys, given := objectKeys(v, alg, sums)
	s := st.s
	s.mu.Lock()
	memBytes := v.MemBytes()
	if given {
		s.deferMetricLocked(func(m Metrics) { m.HashAvoidedBytes(memBytes) })
	} else {
		s.deferMetricLocked(func(m Metrics) { m.HashBytes("save_keys", memBytes) })
	}
	counts, err := st.commitLocked(v, state, pageKeys)
	delete(s.inflight, st.seg+tmpSuffix)
	s.mu.Unlock()
	s.drainMetrics()
	return counts, err
}

// objectKeys returns the guest's page keys: sums, copied, when they are
// ObjectAlgorithm digests of every page (given), else a rehash of the guest —
// the one digest pass a save can have.
func objectKeys(v *vm.VM, alg checksum.Algorithm, sums []checksum.Sum) (keys []checksum.Sum, given bool) {
	if alg == ObjectAlgorithm && len(sums) == v.NumPages() {
		// Copied: the entry's key list outlives the call (restores serve
		// their announcement from it) and must not alias a caller's buffer.
		return append([]checksum.Sum(nil), sums...), true
	}
	return pageSums(v, ObjectAlgorithm), false
}

// commitLocked runs the commit transaction. Write order is: the segment
// (streamed slots, then the catch-up), page manifest, then — the commit
// point — the store manifest. A crash before the manifest commit leaves the
// previous transaction's manifest in charge: recovery rolls back the
// unrecorded segment and quarantines the entry if its pmf was already
// replaced. Replacing a servable entry of the same length costs map work only
// where the key lists differ (missingLocked, registerEntryLocked).
func (st *SaveStream) commitLocked(v *vm.VM, state EntryState, pageKeys []checksum.Sum) (counts SaveCounts, err error) {
	s := st.s
	defer func() {
		if err != nil && st.w != nil && !killed(err) {
			st.w.discard()
		}
	}()
	if key := sanitize(v.Name()); key != st.key {
		return counts, fmt.Errorf("checkpoint: save stream of %q cannot commit VM %q", st.key, key)
	}
	newSlots := s.missingLocked(st.key, pageKeys)
	if s.quota > 0 {
		if newSlots, err = s.fitQuotaLocked(st.key, pageKeys, newSlots, st.have); err != nil {
			return counts, err
		}
	}
	dedup := len(pageKeys) - len(newSlots)
	var catchUp []int
	for _, i := range newSlots {
		if _, ok := st.have[pageKeys[i]]; ok {
			counts.Streamed++
		} else {
			catchUp = append(catchUp, i)
		}
	}
	counts.CaughtUp = len(catchUp)

	segSeal := ""
	if len(newSlots) > 0 {
		w, err := st.writer()
		if err != nil {
			return counts, err
		}
		// Runs of adjacent frames go to the file straight out of guest memory.
		for i := 0; i < len(catchUp); {
			j := i + 1
			for j < len(catchUp) && j-i < saveRunPages && catchUp[j] == catchUp[j-1]+1 {
				j++
			}
			if err := w.addGuest(v, catchUp[i], pageKeys[catchUp[i]:catchUp[j-1]+1]); err != nil {
				return counts, err
			}
			i = j
		}
		// Streamed slots whose content the pool holds already — written before
		// it got there, or never missing — are dead: the pool keeps one copy.
		for i, k := range w.keys {
			if _, pooled := s.objects[k]; pooled {
				w.keys[i] = deadSlot
			}
		}
		if segSeal, err = w.seal(); err != nil {
			return counts, err
		}
	} else if st.w != nil {
		// Everything the stream wrote is pooled already: keep none of it.
		st.w.discard()
	}
	pmfDigest, err := writePMF(s.fs, s.pmfPath(v.Name()), pageKeys)
	if err != nil {
		return counts, err
	}
	if err := kill("pmf-written"); err != nil {
		return counts, err
	}
	// Transaction commit: the manifest is written LAST, so a crash at any
	// earlier point leaves recorded digests that no longer match the disk —
	// which the recovery scan quarantines instead of serving.
	if segSeal != "" {
		s.man.NextSeg = max(s.man.NextSeg, st.n)
		s.man.Segments[st.seg] = segmentRecord{Digest: segSeal, Pages: len(st.w.keys)}
	}
	s.man.Entries[st.key] = manifestEntry{State: state, Digest: pmfDigest, Size: v.MemBytes(), Pages: len(pageKeys)}
	if err := s.commitManifestLocked(); err != nil {
		return counts, err
	}
	// The transaction is durable: fold it into the in-memory pool view.
	if segSeal != "" {
		s.registerSegmentLocked(st.seg, st.w.keys)
	}
	s.registerEntryLocked(st.key, pageKeys)
	s.dedupPages += int64(dedup)
	if dedup > 0 {
		s.deferMetricLocked(func(m Metrics) { m.DedupPages(dedup) })
	}
	return counts, nil
}

// saveRunPages caps a run of guest pages a save writes under one hold of the
// guest's read lock.
const saveRunPages = 256

// Abort drops the stream: its file, if any, is unlinked and nothing is
// committed. A no-op on a nil, committed or aborted stream.
func (st *SaveStream) Abort() {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.done {
		st.dropLocked()
	}
}

// dropLocked ends the stream uncommitted and unlinks its file, if any.
func (st *SaveStream) dropLocked() {
	st.done = true
	if st.w != nil {
		st.w.discard()
	}
	st.s.mu.Lock()
	delete(st.s.inflight, st.seg+tmpSuffix)
	st.s.mu.Unlock()
}
