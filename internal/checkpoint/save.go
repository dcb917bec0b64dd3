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
// misses straight from guest memory, finishes the segment, writes the page
// manifest under a temp name and updates the in-memory manifest: the entry is
// visible. The store's flush (atomic.go) then makes it durable, behind the
// caller. A save with nothing streamed is a commit that writes every missing
// page itself.

// ErrStreamBroken marks the commit of a save stream one of whose writes
// failed: nothing was saved and the stream's file is gone. Saving again
// through a fresh stream writes every missing page after the fact.
var ErrStreamBroken = errors.New("checkpoint: save stream broken")

// Save checkpoints the VM's memory on this host, replacing any previous
// checkpoint of the same VM — including a salvage checkpoint, which a
// completed migration supersedes. Pages whose content the object pool
// already holds (from any VM) are referenced, not rewritten. The pages are
// keyed from the guest's digest table; only the pages it does not cover are
// hashed. Unlike a stream's Commit, Save returns once the checkpoint is
// durable: it flushes the store, and reports the outcome of the flush that
// carried this commit.
func (s *Store) Save(source *vm.VM) error {
	st := s.OpenSave(source.Name())
	if _, err := st.Commit(source, EntryComplete); err != nil {
		return err
	}
	// The background flusher may have written this commit's batch before
	// Flush is called, and a later batch may fail after it: Durable, not
	// Flush, reports this commit's outcome.
	_ = s.Flush()
	return st.Durable()
}

// SaveWithSums is Save: alg and sums are ignored. The guest's digest table is
// the only record of a page's digest, and a migration leaves it complete, so
// there is no table for a caller to hand over. The signature stays for the
// recycle-cycle benchmark's frozen layer replay, which still passes an MD5
// table; it goes when that replay stops calling it.
func (s *Store) SaveWithSums(source *vm.VM, alg checksum.Algorithm, sums []checksum.Sum) error {
	return s.Save(source)
}

// SaveCounts reports what a save's commit did: how it keyed the guest's pages
// and where the pages the store was missing came from.
type SaveCounts struct {
	// Streamed counts the missing pages the stream had already written.
	Streamed int
	// CaughtUp counts the missing pages the commit wrote from guest memory.
	CaughtUp int
	// Hashed counts the pages the commit keyed by hashing them, because the
	// guest's digest table did not cover them; every other page of the guest
	// was keyed from the table. Set whenever the keying ran, even when the
	// commit failed after it.
	Hashed int
	// Pooled counts the pages whose content the pool already held, referenced
	// instead of written. Zero unless the commit succeeded.
	Pooled int
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

	mu    sync.Mutex
	w     *segWriter                // created by the first page written
	have  map[checksum.Sum]struct{} // keys of the slots written so far
	err   error                     // first write failure: the stream writes no more
	done  bool                      // committed or aborted
	batch *flushBatch               // the flush that makes the commit durable
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
// previous entry of the VM. The page keys come from the guest's digest table,
// and only the pages it does not cover are hashed.
//
// It computes the pages the pool is missing — against the pool and the entry
// it replaces, as any save does — and appends those the stream has not
// written, straight from guest memory. Then it writes the trailer and the page
// manifest, both under temp names and unsynced, and records the entry in the
// in-memory manifest and pool view. It returns once the entry is visible; the
// store's flush, in the background, makes it durable, and Restore serves it
// only then (Durable waits for it). Streamed slots the entry does not need are
// dead on arrival; a segment holding nothing the entry needs is not kept at
// all. A broken stream commits nothing and fails with ErrStreamBroken. Commit
// or Abort once; later calls fail or do nothing.
func (st *SaveStream) Commit(v *vm.VM, state EntryState) (SaveCounts, error) {
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
	pageKeys, hashed := guestKeys(v)
	s := st.s
	s.mu.Lock()
	counts, err := st.commitLocked(v, state, pageKeys)
	if err != nil || st.w == nil {
		// No segment of the stream's waits for a flush.
		delete(s.inflight, st.seg+tmpSuffix)
	}
	s.kickLocked()
	s.mu.Unlock()
	counts.Hashed = hashed
	return counts, err
}

// commitLocked runs the visible half of the commit transaction. Write order
// is: the segment (streamed slots, then the catch-up), then the page manifest
// under its temp name; the flush syncs and renames them in that order and
// commits the store manifest last. A crash before the manifest commit leaves
// the previous transaction's manifest in charge: recovery rolls back the
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
		if segSeal, err = w.finish(); err != nil {
			return counts, err
		}
	} else if st.w != nil {
		// Everything the stream wrote is pooled already: keep none of it.
		st.w.discard()
		st.w = nil
	}
	pmf, pmfDigest, err := createPMF(s.fs, s.pmfPath(v.Name()), st.n, pageKeys)
	if err != nil {
		return counts, err
	}
	// Visible: the entry goes into the in-memory manifest and pool view, and
	// its files into the next flush, which commits the manifest LAST — so a
	// crash at any earlier point leaves recorded digests that no longer match
	// the disk, which the recovery scan quarantines instead of serving.
	b := s.batchLocked()
	if segSeal != "" {
		s.man.NextSeg = max(s.man.NextSeg, st.n)
		s.man.Segments[st.seg] = segmentRecord{Digest: segSeal, Pages: len(st.w.keys)}
		s.registerSegmentLocked(st.seg, st.w.keys)
		b.segs = append(b.segs, st.w)
	}
	b.addPMF(s, pmf)
	s.man.Entries[st.key] = manifestEntry{State: state, Digest: pmfDigest, Size: v.MemBytes(), Pages: len(pageKeys)}
	s.registerEntryLocked(st.key, pageKeys)
	s.waiting[st.key] = b
	st.batch = b
	counts.Pooled = len(pageKeys) - len(newSlots)
	return counts, nil
}

// addPMF adds a commit's page manifest to the batch, in Store.inflight until
// the flush renames it. A page manifest of the same entry that the batch
// holds already is superseded before anything synced it: it is dropped.
func (b *flushBatch) addPMF(s *Store, p *pendingPMF) {
	for i, old := range b.pmfs {
		if old.path == p.path {
			old.close()
			s.fs.Remove(old.tmp)
			delete(s.inflight, filepath.Base(old.tmp))
			b.pmfs = append(b.pmfs[:i], b.pmfs[i+1:]...)
			break
		}
	}
	s.inflight[filepath.Base(p.tmp)] = true
	b.pmfs = append(b.pmfs, p)
}

// Durable waits until the flush that carries the stream's commit is done and
// returns its error: nil once the entry is durable; the failure otherwise,
// after which the store has recovered as from a crash — the entry is the
// previous one or quarantined. It returns nil at once for a stream that
// committed nothing. Callers that want to report a lost checkpoint wait on it
// off their critical path.
func (st *SaveStream) Durable() error {
	st.mu.Lock()
	b := st.batch
	st.mu.Unlock()
	if b == nil {
		return nil
	}
	<-b.done
	return b.err
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
