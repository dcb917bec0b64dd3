package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
)

// Startup recovery. NewStore replays the crash-consistency contract before
// serving anything:
//
//   - leftover temp files are interrupted transactions and are deleted —
//     except the segment of a save stream still open, which a Scrub finds
//     in flight while a migration writes it;
//   - every recorded segment is replayed against the disk — its header and
//     trailer against the recorded seal, then every payload against its
//     own key — and a vanished or torn segment is pulled from the pool (the
//     file, if torn, is set aside under a .bad suffix for forensics) and
//     every entry that depended on it quarantines below;
//   - every entry's page-manifest digest is replayed and its object keys
//     resolved against the pool — a mismatch or an unresolvable key means
//     the crash landed between a file rename and the manifest commit, and
//     the entry is quarantined rather than served;
//   - segment and page-manifest files the manifest never heard of are the
//     uncommitted tail of an interrupted transaction and are rolled back;
//   - fingerprint index files (*.idx) of the retired two-digest layout and
//     generation vectors (*.gens.json) of the retired dirty-tracking
//     baseline are unlinked: nothing reads them.

// ScrubReport summarizes one recovery scan.
type ScrubReport struct {
	// Checked counts the entries whose recorded page-manifest digest was
	// replayed against the disk.
	Checked int
	// Quarantined lists entries quarantined by this scan.
	Quarantined []string
	// Dropped lists manifest records whose page manifest had vanished.
	Dropped []string
	// TempFiles lists interrupted-transaction temp files deleted.
	TempFiles []string
	// Orphans lists segment and page-manifest files no committed
	// transaction described, rolled back by this scan.
	Orphans []string
	// CleanupFailures lists paths of best-effort cleanups (satellite
	// sweeps, files of a retired format) that failed to unlink. The scan
	// proceeds — the files are garbage, not state — but a disk that
	// cannot unlink is worth surfacing; each failure is also counted in
	// the vecycle_store_cleanup_errors_total metric.
	CleanupFailures []string
}

// Scrub runs the recovery scan on demand — the same pass NewStore runs at
// startup — and reports what it found. Already-quarantined entries are
// re-checked: one whose files now validate again stays quarantined (the
// state records that it was once torn; Remove is the way out).
func (s *Store) Scrub() (ScrubReport, error) {
	s.mu.Lock()
	rep, err := s.recoverLocked()
	s.mu.Unlock()
	s.drainMetrics()
	return rep, err
}

func (s *Store) recoverLocked() (ScrubReport, error) {
	var rep ScrubReport
	dirents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return rep, fmt.Errorf("checkpoint: recovery scan: %w", err)
	}
	changed := false

	// Reset the in-memory pool view: recovery rebuilds it from disk.
	s.objects = map[checksum.Sum]objLoc{}
	s.refs = map[checksum.Sum]int{}
	s.keys = map[string][]checksum.Sum{}
	s.segKeys = map[string][]checksum.Sum{}

	// 1. Interrupted transactions: any surviving temp file belongs to a
	// write whose commit never happened, unless its save stream is open.
	for _, de := range dirents {
		if strings.HasSuffix(de.Name(), tmpSuffix) && !s.inflight[de.Name()] {
			p := filepath.Join(s.dir, de.Name())
			if err := s.fs.Remove(p); err != nil && !os.IsNotExist(err) {
				return rep, fmt.Errorf("checkpoint: remove orphan %s: %w", p, err)
			}
			rep.TempFiles = append(rep.TempFiles, de.Name())
		}
	}

	// 2. Segment replay: every recorded segment must exist, parse, match its
	// recorded seal and hold payloads that hash to their keys before its
	// objects enter the pool. badKeys remembers why a torn segment's objects
	// vanished, so the entries that referenced them can quarantine with the
	// root cause; keyless lists the torn segments whose trailer was lost with
	// the tail, so whose objects cannot be named.
	badKeys := map[checksum.Sum]string{}
	var keyless []string
	for _, segName := range sortedKeys(s.man.Segments) {
		path := filepath.Join(s.dir, segName)
		f, err := s.fs.Open(path)
		if errors.Is(err, os.ErrNotExist) {
			delete(s.man.Segments, segName)
			changed = true
			continue
		}
		if err != nil {
			return rep, fmt.Errorf("checkpoint: recovery scan: %w", err)
		}
		segKeys, reason, err := checkSegment(f, segName, s.man.Segments[segName])
		f.Close()
		if err != nil {
			return rep, err
		}
		if reason == "" {
			s.registerSegmentLocked(segName, segKeys)
			continue
		}
		for _, k := range segKeys {
			badKeys[k] = reason
		}
		if segKeys == nil {
			keyless = append(keyless, reason)
		}
		// Torn: pull it from the pool, set the file aside for forensics.
		delete(s.man.Segments, segName)
		changed = true
		if err := s.fs.Rename(path, path+".bad"); err != nil && !os.IsNotExist(err) {
			return rep, fmt.Errorf("checkpoint: set aside %s: %w", segName, err)
		}
	}

	// 3. Entry replay: page-manifest digest and object resolution.
	for _, key := range sortedKeys(s.man.Entries) {
		e := s.man.Entries[key]
		if e.State == EntryQuarantined {
			// Keep the record; if its page manifest is readable, keep its
			// objects pinned so GC preserves the evidence.
			if pageKeys, _, err := loadPMF(s.fs, s.pmfPath(key)); err == nil {
				s.registerEntryLocked(key, pageKeys)
			}
			continue
		}
		pageKeys, digest, err := loadPMF(s.fs, s.pmfPath(key))
		if err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				// Readable but torn page manifest: quarantine.
				e.State = EntryQuarantined
				e.Reason = fmt.Sprintf("page manifest unreadable: %v", err)
				s.man.Entries[key] = e
				rep.Quarantined = append(rep.Quarantined, key)
				changed = true
				continue
			}
			// Record without a page manifest: a raced Remove or a crash
			// after the unlink. Drop it.
			delete(s.man.Entries, key)
			rep.Dropped = append(rep.Dropped, key)
			changed = true
			continue
		}
		rep.Checked++
		reason := ""
		if e.Digest != "" && digest != e.Digest {
			reason = fmt.Sprintf("page manifest digest mismatch (recorded %.12s, computed %.12s)", e.Digest, digest)
		} else {
			// Prefer a torn segment's reason over a bare missing key: a
			// flipped key-table byte leaves one key unaccounted for, but its
			// neighbours name the segment.
			for _, k := range pageKeys {
				if _, ok := s.objects[k]; ok {
					continue
				}
				if why, torn := badKeys[k]; torn {
					reason = why
					break
				}
				if reason == "" {
					reason = fmt.Sprintf("object %s missing from pool", k)
					if len(keyless) > 0 {
						reason += "; " + strings.Join(keyless, "; ")
					}
				}
			}
		}
		s.registerEntryLocked(key, pageKeys)
		if reason != "" {
			e.State = EntryQuarantined
			e.Reason = reason
			s.man.Entries[key] = e
			rep.Quarantined = append(rep.Quarantined, key)
			changed = true
		}
	}

	// 4. Roll back files no committed transaction describes: unrecorded
	// segments and page manifests are the tail of an interrupted Save.
	// Files of retired formats are swept whatever they sit next to.
	for _, de := range dirents {
		name := de.Name()
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, segmentSuffix) {
			if _, recorded := s.man.Segments[name]; !recorded {
				if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
					return rep, fmt.Errorf("checkpoint: roll back %s: %w", name, err)
				}
				rep.Orphans = append(rep.Orphans, name)
			}
			continue
		}
		if key, ok := strings.CutSuffix(name, pmfSuffix); ok {
			if _, recorded := s.man.Entries[key]; !recorded {
				if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
					return rep, fmt.Errorf("checkpoint: roll back %s: %w", name, err)
				}
				rep.Orphans = append(rep.Orphans, name)
			}
			continue
		}
		if strings.HasSuffix(name, retiredIndexSuffix) || strings.HasSuffix(name, retiredGensSuffix) {
			s.sweepLocked(&rep, filepath.Join(s.dir, name))
		}
	}

	if changed {
		if err := s.commitManifestLocked(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// checkSegment replays one recorded segment: its header and trailer must
// parse and hash to the recorded seal, and every payload must hash to its own
// key. A segment that fails says why in reason, together with whatever keys
// its table yielded; err is a read failure, which aborts the scan rather than
// condemning the file.
func checkSegment(f faultfs.File, name string, rec segmentRecord) (keys []checksum.Sum, reason string, err error) {
	st, err := f.Stat()
	if err != nil {
		return nil, "", fmt.Errorf("checkpoint: recovery scan %s: %w", name, err)
	}
	keys, seal, err := readSegmentKeys(f, st.Size())
	switch {
	case err != nil:
		return nil, fmt.Sprintf("segment %s unreadable: %v", name, err), nil
	case seal != rec.Digest:
		return keys, fmt.Sprintf("segment %s key table digest mismatch (recorded %.12s, computed %.12s)", name, rec.Digest, seal), nil
	case len(keys) != rec.Pages:
		return keys, fmt.Sprintf("segment %s holds %d objects, manifest records %d", name, len(keys), rec.Pages), nil
	}
	refs := make([]pageRef, len(keys))
	for i := range refs {
		refs[i] = pageRef{f: f, off: segPayloadOffset(i)}
	}
	var bad *corruptPage
	if err := checkPayloads(refs, keys); errors.As(err, &bad) {
		return keys, fmt.Sprintf("segment %s payload digest mismatch (slot %d stored as object %s, bytes hash to %s)", name, bad.slot, bad.key, bad.got), nil
	} else if err != nil {
		return nil, "", fmt.Errorf("checkpoint: recovery scan %s: %w", name, err)
	}
	return keys, "", nil
}

// Suffixes of retired per-entry files: the fingerprint index stores wrote
// while object keys and wire checksums were different digests, and the
// Miyakodori generation vector complete saves wrote while nothing read it.
const (
	retiredIndexSuffix = ".idx"
	retiredGensSuffix  = ".gens.json"
)

// sweepLocked removes best-effort satellite files, recording failures in
// the scrub report and the cleanup-errors metric instead of dropping them.
func (s *Store) sweepLocked(rep *ScrubReport, paths ...string) {
	for _, p := range paths {
		if err := s.fs.Remove(p); err != nil && !os.IsNotExist(err) {
			rep.CleanupFailures = append(rep.CleanupFailures, p)
			path := p
			s.deferMetricLocked(func(m Metrics) { m.CleanupError(path) })
		}
	}
}

// sortedKeys returns a map's keys in sorted order, for deterministic scans.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
