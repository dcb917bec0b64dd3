package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// Garbage collection over the object pool. Save only ever appends segments;
// Remove (and re-saves that change content) merely drop references. GC is
// the pass that turns dead references into reclaimed bytes: segments no
// live entry references are deleted outright, and
// segments more than half dead are compacted — their live payloads
// rewritten into a fresh segment, their file deleted. Page manifests never
// change during GC (they reference objects by key, not by location), so a
// compaction is invisible to entries and to concurrently open Checkpoints,
// which hold file handles that outlive the unlink.
//
// GC flushes every pending commit first, then follows the same transaction
// discipline as Save, running the flush itself: new (compacted) segments are
// written and synced first, the manifest commit flips the store to the new
// layout atomically, and only then are dead files unlinked. A crash
// anywhere in between leaves either the old layout (plus unrecorded files
// the next GC or recovery rolls back) or the new one (plus recorded-but-
// undeleted files a later GC re-collects).

// compactDeadFraction is the occupancy threshold for rewriting a segment:
// a segment is compacted when at least half of its pages are dead. Below
// that, the reclaimed bytes are not worth the rewrite I/O.
const compactDeadFraction = 0.5

// GCReport summarizes one collection pass.
type GCReport struct {
	// SegmentsDeleted counts segment files removed because nothing live
	// referenced any of their pages.
	SegmentsDeleted int
	// SegmentsCompacted counts segments rewritten to shed dead pages.
	SegmentsCompacted int
	// PagesReclaimed counts dead page payloads whose bytes were freed.
	PagesReclaimed int
	// BytesReclaimed is the physical payload bytes freed by this pass.
	BytesReclaimed int64
	// OrphanFiles counts the segment and page-manifest files no committed
	// transaction describes (interrupted saves, a crashed GC's unlinks) that
	// the pass rolled back.
	OrphanFiles int
}

// Reclaimed reports whether the pass freed anything.
func (r GCReport) Reclaimed() bool {
	return r.SegmentsDeleted > 0 || r.SegmentsCompacted > 0 || r.OrphanFiles > 0
}

// GC runs a collection pass over the object pool and reports what it
// reclaimed. Safe to run at any time; concurrent Restores keep serving
// through their already-open file handles.
func (s *Store) GC() (GCReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gcLocked()
}

func (s *Store) gcLocked() (rep GCReport, err error) {
	if err := s.flushLocked(); err != nil {
		return rep, err
	}
	orphans, err := s.rollbackLocked()
	rep.OrphanFiles = len(orphans)
	if err != nil {
		return rep, err
	}

	var deadFiles []string
	for _, segName := range sortedKeys(s.man.Segments) {
		keys := s.segKeys[segName]
		var liveSlots []int
		for i, k := range keys {
			if s.liveLocked(segName, k) {
				liveSlots = append(liveSlots, i)
			}
		}
		dead := len(keys) - len(liveSlots)
		if len(liveSlots) > 0 && float64(dead) < compactDeadFraction*float64(len(keys)) {
			continue
		}
		// Fully dead: drop the record now, unlink after the commit. Mostly
		// dead: first rewrite the live payloads into a new segment.
		var newName string
		newKeys := make([]checksum.Sum, len(liveSlots))
		if len(liveSlots) > 0 {
			for i, slot := range liveSlots {
				newKeys[i] = keys[slot]
			}
			var n uint64
			n, newName = s.reserveSegmentLocked()
			seal, err := s.compactLocked(segName, newName, liveSlots, newKeys)
			if err != nil {
				return rep, err
			}
			s.man.NextSeg = max(s.man.NextSeg, n)
			s.man.Segments[newName] = segmentRecord{Digest: seal, Pages: len(newKeys)}
			rep.SegmentsCompacted++
		} else {
			rep.SegmentsDeleted++
		}
		// Drop every index entry canonical to the old segment — the dead ones
		// (refs == 0) vanish with the file; the live ones are re-registered at
		// their compacted location. Leaving a dead key behind would let a
		// later Save dedup new content against a payload that no longer
		// exists on disk.
		for _, k := range keys {
			if s.objects[k].seg == segName {
				delete(s.objects, k)
			}
		}
		delete(s.segKeys, segName)
		delete(s.man.Segments, segName)
		if newName != "" {
			s.registerSegmentLocked(newName, newKeys)
		}
		deadFiles = append(deadFiles, segName)
		rep.PagesReclaimed += dead
		rep.BytesReclaimed += int64(dead) * vm.PageSize
	}
	if len(deadFiles) > 0 {
		s.batchLocked() // the manifest changed: the flush writes it
		if err := s.flushLocked(); err != nil {
			return rep, err
		}
	}
	// Unlink after the commit: a crash here leaves unrecorded files, which
	// the rollback (above, and in recovery) re-collects.
	for _, name := range deadFiles {
		if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return rep, fmt.Errorf("checkpoint: gc unlink %s: %w", name, err)
		}
	}
	return rep, nil
}

// liveLocked reports whether the key in one of segName's slots is live: some
// entry references it AND this segment is its canonical location (compaction
// may leave a key's payload duplicated across segments; only the indexed copy
// counts).
func (s *Store) liveLocked(segName string, k checksum.Sum) bool {
	return s.refs[k] > 0 && s.objects[k].seg == segName
}

// compactLocked writes the payloads of segName's live slots, whose keys are
// keys, into the new segment newName, hands it to the next flush and returns
// its seal. Slots that sit back to back are read with one ReadAt per run
// (scanPages).
func (s *Store) compactLocked(segName, newName string, liveSlots []int, keys []checksum.Sum) (seal string, err error) {
	src, err := s.fs.Open(filepath.Join(s.dir, segName))
	if err != nil {
		return "", fmt.Errorf("checkpoint: gc open %s: %w", segName, err)
	}
	defer src.Close()
	w, err := createSegment(s.fs, filepath.Join(s.dir, newName))
	if err != nil {
		return "", err
	}
	refs := make([]pageRef, len(liveSlots))
	for i, slot := range liveSlots {
		refs[i] = pageRef{f: src, off: segPayloadOffset(slot)}
	}
	if err := scanPages(refs, func(i int, page []byte) error { return w.add(keys[i], page) }); err != nil {
		w.discard()
		return "", fmt.Errorf("checkpoint: gc compact %s: %w", segName, err)
	}
	if seal, err = w.finish(); err != nil {
		return "", err
	}
	s.inflight[newName+tmpSuffix] = true
	b := s.batchLocked()
	b.segs = append(b.segs, w)
	return seal, nil
}

// Stats is the store's dedup accounting.
type Stats struct {
	// Entries is the number of manifest entries, all states included.
	Entries int
	// Segments is the number of live segment files.
	Segments int
	// Objects is the number of distinct pages in the pool.
	Objects int
	// LogicalBytes is the sum of entry sizes: what the checkpoints would
	// occupy stored privately, one image per VM.
	LogicalBytes int64
	// PhysicalBytes is the payload bytes actually stored in segments (file
	// format overhead and page manifests excluded — together
	// under half a percent of payload).
	PhysicalBytes int64
}

// DedupRatio reports LogicalBytes / PhysicalBytes — 1.0 means no sharing;
// the paper's cross-generation redundancy alone reaches ~1.3. Zero when the
// store is empty.
func (st Stats) DedupRatio() float64 {
	if st.PhysicalBytes == 0 {
		return 0
	}
	return float64(st.LogicalBytes) / float64(st.PhysicalBytes)
}

// Stats reports the store's current dedup accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Store) statsLocked() Stats {
	st := Stats{
		Entries:  len(s.man.Entries),
		Segments: len(s.man.Segments),
		Objects:  len(s.objects),
	}
	for _, e := range s.man.Entries {
		st.LogicalBytes += e.Size
	}
	st.PhysicalBytes = s.physicalLocked()
	return st
}

// physicalLocked reports the payload bytes stored across all segments.
func (s *Store) physicalLocked() int64 {
	var n int64
	for _, rec := range s.man.Segments {
		n += int64(rec.Pages) * vm.PageSize
	}
	return n
}

// SegmentInfo describes one live segment file for ops tooling.
type SegmentInfo struct {
	// Name is the segment's file name within the store directory.
	Name string
	// Pages is the number of page payloads the segment holds.
	Pages int
	// LivePages is how many of them some entry still references.
	LivePages int
}

// Segments lists the store's live segment files, sorted by name — a segment
// whose commit still waits for its flush included.
func (s *Store) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, 0, len(s.man.Segments))
	for name, rec := range s.man.Segments {
		live := 0
		for _, k := range s.segKeys[name] {
			if s.liveLocked(name, k) {
				live++
			}
		}
		out = append(out, SegmentInfo{Name: name, Pages: rec.Pages, LivePages: live})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
