package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// Garbage collection over the object pool. Save only ever appends segments;
// Remove (and quota eviction, and re-saves that change content) merely drop
// references. GC is the pass that turns dead references into reclaimed
// bytes: segments no live entry references are deleted outright, and
// segments more than half dead are compacted — their live payloads
// rewritten into a fresh segment, their file deleted. Page manifests never
// change during GC (they reference objects by key, not by location), so a
// compaction is invisible to entries and to concurrently open Checkpoints,
// which hold file handles that outlive the unlink.
//
// GC follows the same transaction discipline as Save: new (compacted)
// segments are written first, the manifest commit flips the store to the
// new layout atomically, and only then are dead files unlinked. A crash
// anywhere in between leaves either the old layout (plus unrecorded files
// recovery rolls back) or the new one (plus recorded-but-undeleted files a
// later GC re-collects).

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
	// OrphanFiles counts unrecorded segment files (interrupted
	// transactions) deleted.
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
	rep, err := s.gcLocked()
	s.mu.Unlock()
	s.drainMetrics()
	return rep, err
}

func (s *Store) gcLocked() (rep GCReport, err error) {
	defer func() {
		if err == nil {
			outcome := "clean"
			if rep.Reclaimed() {
				outcome = "reclaimed"
			}
			s.deferMetricLocked(func(m Metrics) { m.GCRun(outcome) })
		}
	}()

	// Orphan segment files: present on disk, absent from the manifest —
	// interrupted transactions (or files a crashed GC already unlinked from
	// the manifest but not the directory).
	dirents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return rep, fmt.Errorf("checkpoint: gc scan: %w", err)
	}
	for _, de := range dirents {
		name := de.Name()
		if !strings.HasSuffix(name, segmentSuffix) || !strings.HasPrefix(name, "seg-") {
			continue
		}
		if _, recorded := s.man.Segments[name]; recorded {
			continue
		}
		if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return rep, fmt.Errorf("checkpoint: gc orphan %s: %w", name, err)
		}
		rep.OrphanFiles++
	}

	// Liveness per segment: an object is live when some entry references it
	// AND this segment is its canonical location (compaction may leave a
	// key's payload duplicated across segments; only the indexed copy
	// counts).
	segNames := make([]string, 0, len(s.man.Segments))
	for name := range s.man.Segments {
		segNames = append(segNames, name)
	}
	sort.Strings(segNames)

	changed := false
	var deadFiles []string
	for _, segName := range segNames {
		keys := s.segKeys[segName]
		var liveSlots []int
		for i, k := range keys {
			if s.refs[k] > 0 && s.objects[k].seg == segName {
				liveSlots = append(liveSlots, i)
			}
		}
		dead := len(keys) - len(liveSlots)
		switch {
		case len(liveSlots) == 0:
			// Fully dead: drop the record now, unlink after the commit.
			for _, k := range keys {
				if s.objects[k].seg == segName {
					delete(s.objects, k)
				}
			}
			delete(s.segKeys, segName)
			delete(s.man.Segments, segName)
			deadFiles = append(deadFiles, segName)
			rep.SegmentsDeleted++
			rep.PagesReclaimed += dead
			rep.BytesReclaimed += int64(dead) * vm.PageSize
			changed = true
		case float64(dead) >= compactDeadFraction*float64(len(keys)):
			// Mostly dead: rewrite the live payloads into a new segment.
			newKeys := make([]checksum.Sum, len(liveSlots))
			for i, slot := range liveSlots {
				newKeys[i] = keys[slot]
			}
			n, newName := s.reserveSegmentLocked()
			seal, err := s.compactLocked(segName, newName, liveSlots, newKeys)
			if err != nil {
				return rep, err
			}
			s.man.NextSeg = max(s.man.NextSeg, n)
			s.man.Segments[newName] = segmentRecord{Digest: seal, Pages: len(newKeys)}
			delete(s.man.Segments, segName)
			// Drop every index entry canonical to the old segment — the dead
			// ones (refs == 0) vanish with the file; the live ones are
			// re-registered at their compacted location just below. Leaving a
			// dead key behind would let a later Save dedup new content
			// against a payload that no longer exists on disk.
			for _, k := range keys {
				if s.objects[k].seg == segName {
					delete(s.objects, k)
				}
			}
			// Re-point the pool index at the compacted copies.
			s.segKeys[newName] = newKeys
			delete(s.segKeys, segName)
			for i, k := range newKeys {
				s.objects[k] = objLoc{seg: newName, off: segPayloadOffset(i)}
			}
			deadFiles = append(deadFiles, segName)
			rep.SegmentsCompacted++
			rep.PagesReclaimed += dead
			rep.BytesReclaimed += int64(dead) * vm.PageSize
			changed = true
		}
	}
	if changed {
		if err := s.commitManifestLocked(); err != nil {
			return rep, err
		}
	}
	// Unlink after the commit: a crash here leaves unrecorded files, which
	// the orphan sweep (above, and in recovery) re-collects.
	for _, name := range deadFiles {
		if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return rep, fmt.Errorf("checkpoint: gc unlink %s: %w", name, err)
		}
	}
	return rep, nil
}

// compactLocked writes the payloads of segName's live slots, whose keys are
// keys, into the new segment newName and returns its seal.
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
	buf := make([]byte, vm.PageSize)
	for i, slot := range liveSlots {
		if _, err := src.ReadAt(buf, segPayloadOffset(slot)); err != nil {
			w.discard()
			return "", fmt.Errorf("checkpoint: gc read %s: %w", segName, err)
		}
		if err := w.add(keys[i], buf); err != nil {
			w.discard()
			return "", err
		}
	}
	return w.seal()
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
	// DedupPagesTotal is the cumulative count of pages Save deduplicated
	// against the pool instead of writing, since this store was opened.
	DedupPagesTotal int64
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
		Entries:         len(s.man.Entries),
		Segments:        len(s.man.Segments),
		Objects:         len(s.objects),
		DedupPagesTotal: s.dedupPages,
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

// Segments lists the store's live segment files, sorted by name.
func (s *Store) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, 0, len(s.man.Segments))
	for name, rec := range s.man.Segments {
		live := 0
		for _, k := range s.segKeys[name] {
			if s.refs[k] > 0 && s.objects[k].seg == name {
				live++
			}
		}
		out = append(out, SegmentInfo{Name: name, Pages: rec.Pages, LivePages: live})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
