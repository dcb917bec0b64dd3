package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vecycle/internal/checksum"
)

// Startup recovery. NewStore replays the crash-consistency contract before
// serving anything:
//
//   - leftover temp files are interrupted transactions and are deleted;
//   - every recorded segment's whole-file digest is replayed against the
//     disk — a vanished or torn segment is pulled from the pool (the file,
//     if torn, is set aside under a .bad suffix for forensics) and every
//     entry that depended on it quarantines below;
//   - every entry's page-manifest digest is replayed and its object keys
//     resolved against the pool — a mismatch or an unresolvable key means
//     the crash landed between a file rename and the manifest commit, and
//     the entry is quarantined rather than served;
//   - segment and page-manifest files the manifest never heard of are the
//     uncommitted tail of an interrupted transaction and are rolled back;
//   - fingerprint index files (*.idx) of the retired two-digest layout are
//     unlinked: the page manifest is the fingerprint index now, and nothing
//     reads them.

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
	// write whose commit never happened.
	for _, de := range dirents {
		if strings.HasSuffix(de.Name(), tmpSuffix) {
			p := filepath.Join(s.dir, de.Name())
			if err := s.fs.Remove(p); err != nil && !os.IsNotExist(err) {
				return rep, fmt.Errorf("checkpoint: remove orphan %s: %w", p, err)
			}
			rep.TempFiles = append(rep.TempFiles, de.Name())
		}
	}

	// 2. Segment replay: every recorded segment must exist, parse, and hash
	// to its recorded digest before its objects enter the pool. badKeys
	// remembers why a torn segment's objects vanished, so the entries that
	// referenced them can quarantine with the root cause.
	badKeys := map[checksum.Sum]string{}
	for _, segName := range sortedKeys(s.man.Segments) {
		rec := s.man.Segments[segName]
		path := filepath.Join(s.dir, segName)
		got, err := hashFile(s.fs, path)
		if os.IsNotExist(err) {
			delete(s.man.Segments, segName)
			changed = true
			continue
		}
		if err != nil {
			return rep, err
		}
		reason := ""
		if got != rec.Digest {
			reason = fmt.Sprintf("segment %s digest mismatch (recorded %.12s, computed %.12s)", segName, rec.Digest, got)
		} else if segKeys, kerr := readSegmentKeys(s.fs, path); kerr != nil {
			reason = fmt.Sprintf("segment %s unreadable: %v", segName, kerr)
		} else if len(segKeys) != rec.Pages {
			reason = fmt.Sprintf("segment %s holds %d objects, manifest records %d", segName, len(segKeys), rec.Pages)
		} else {
			s.registerSegmentLocked(segName, segKeys)
			continue
		}
		if segKeys, kerr := readSegmentKeys(s.fs, path); kerr == nil {
			for _, k := range segKeys {
				badKeys[k] = reason
			}
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
			if !os.IsNotExist(unwrapPathError(err)) {
				// Readable but torn page manifest: quarantine.
				e.State = EntryQuarantined
				e.Reason = fmt.Sprintf("page manifest unreadable: %v", err)
				s.man.Entries[key] = e
				rep.Quarantined = append(rep.Quarantined, key)
				changed = true
				continue
			}
			// Record without a page manifest: a raced Remove or a crash
			// after the unlink. Drop it, sweeping satellite files.
			s.sweepLocked(&rep, s.genPath(key))
			delete(s.man.Entries, key)
			s.dropEntryLocked(key)
			rep.Dropped = append(rep.Dropped, key)
			changed = true
			continue
		}
		rep.Checked++
		reason := ""
		if e.Digest != "" && digest != e.Digest {
			reason = fmt.Sprintf("page manifest digest mismatch (recorded %.12s, computed %.12s)", e.Digest, digest)
		} else {
			for _, k := range pageKeys {
				if _, ok := s.objects[k]; !ok {
					if why, torn := badKeys[k]; torn {
						reason = why
					} else {
						reason = fmt.Sprintf("object %s missing from pool", k)
					}
					break
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
	// Fingerprint index files are swept whatever they sit next to.
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
		if strings.HasSuffix(name, retiredIndexSuffix) {
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

// retiredIndexSuffix marked the per-entry fingerprint index files stores
// wrote while object keys and wire checksums were different digests.
const retiredIndexSuffix = ".idx"

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

// unwrapPathError digs the underlying error out of the fmt wrapping so
// os.IsNotExist works on loadPMF failures.
func unwrapPathError(err error) error {
	for {
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return err
		}
		inner := u.Unwrap()
		if inner == nil {
			return err
		}
		err = inner
	}
}
