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
// already holds (from any VM) are referenced, not rewritten. The pages are
// keyed from the guest's digest table; only the pages it does not cover are
// hashed.
func (s *Store) Save(source *vm.VM) error {
	_, err := s.OpenSave(source.Name()).Commit(source, EntryComplete)
	return err
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
// previous entry of the VM. The page keys come from the guest's digest table,
// and only the pages it does not cover are hashed.
//
// It computes the pages the pool is missing — against the pool and the entry
// it replaces, as any save does — and appends those the stream has not
// written, straight from guest memory. Then it writes the trailer, fsyncs,
// and commits the page manifest and the store manifest. Streamed slots the
// entry does not need are dead on arrival; a segment holding nothing the entry
// needs is not kept at all. A broken stream commits nothing and fails with
// ErrStreamBroken. Commit or Abort once; later calls fail or do nothing.
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
	delete(s.inflight, st.seg+tmpSuffix)
	s.mu.Unlock()
	counts.Hashed = hashed
	return counts, err
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
	counts.Pooled = len(pageKeys) - len(newSlots)
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
