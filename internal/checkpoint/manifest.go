package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The store manifest. Segments and page manifests are each written
// atomically, but a checkpoint entry is only coherent when they agree — and
// a crash can land between the two.
// The manifest is the single commit point: a small versioned JSON file,
// rewritten atomically as the LAST step of every flush (atomic.go) — one
// write for every save commit, Remove, Quarantine and GC the flush covers —
// recording each entry's state and pmf digest plus every segment the object
// pool consists of, by its seal. Any crash earlier in a transaction leaves the
// manifest describing the previous transaction, so the startup recovery scan
// sees digests that no longer match the bytes on disk and quarantines
// (entries) or rolls back (unrecorded segments/pmfs) instead of serving torn
// state.
//
// Version 4 records segments of layout v2 (key table as a trailer) by their
// seal over header and trailer. Version 3 recorded head-first segments, which
// this store cannot read, and version 2 whole-file digests; stores of either
// are refused, not migrated.

const (
	manifestName    = "MANIFEST.json"
	manifestVersion = 4
)

// EntryState is the lifecycle state of a store entry, as recorded in the
// manifest.
type EntryState string

const (
	// EntryComplete is a fully written checkpoint: a coherent image of the
	// whole guest, eligible for bootstrap and by-name matches.
	EntryComplete EntryState = "complete"
	// EntryPartial is a salvage checkpoint: pages installed by an
	// interrupted incoming migration, persisted so the next attempt's hash
	// announcement resends only what is missing. Served for announce-driven
	// bootstrap, never as a by-name match.
	EntryPartial EntryState = "partial"
	// EntryQuarantined marks an entry whose page manifest or backing
	// segment failed its digest check (torn write, bit rot). The files are
	// kept for forensics but the store refuses to serve them.
	EntryQuarantined EntryState = "quarantined"
)

// manifestEntry is one entry's durable record.
type manifestEntry struct {
	State EntryState `json:"state"`
	// Digest is the hex SHA-256 of the entry's page manifest file, which —
	// object keys being collision resistant — pins the entry's complete
	// logical content.
	Digest string `json:"digest,omitempty"`
	// Size is the entry's logical byte size: what the guest's memory
	// occupies, not what the deduplicated store spends on it.
	Size  int64 `json:"size"`
	Pages int   `json:"pages,omitempty"`
	// Reason explains a quarantine, empty otherwise.
	Reason string `json:"reason,omitempty"`
}

// segmentRecord is one segment file's durable record.
type segmentRecord struct {
	// Digest is the segment's seal: the hex SHA-256 of its header and
	// trailer (key table and count). The recovery scan replays it, then
	// checks every payload against its key, to catch torn writes and bit rot.
	Digest string `json:"digest"`
	Pages  int    `json:"pages"`
}

// manifestFile is the on-disk shape.
type manifestFile struct {
	Version  int                      `json:"version"`
	Entries  map[string]manifestEntry `json:"entries"`
	Segments map[string]segmentRecord `json:"segments,omitempty"`
	// NextSeg is the sequence number of the next segment file, so names
	// never collide even after segments are GC'd.
	NextSeg uint64 `json:"nextSeg,omitempty"`
}

// EntryInfo describes a store entry as recorded in the manifest.
type EntryInfo struct {
	// Name is the store key — the sanitized VM name, also the file stem of
	// the entry's page manifest.
	Name string
	// State is the entry's manifest state.
	State EntryState
	// Digest is the hex SHA-256 of the entry's page manifest (its logical
	// content identity), empty when unknown.
	Digest string
	// Size is the entry's logical byte size; the physical bytes behind it
	// are shared with every other entry referencing the same objects.
	Size int64
	// Pages is the entry's page-frame count.
	Pages int
	// UniqueBytes is the portion of Size backed by objects no other entry
	// references — what Remove+GC of this entry alone would reclaim.
	UniqueBytes int64
	// Reason explains a quarantine, empty otherwise.
	Reason string
}

func (s *Store) manifestPath() string {
	return filepath.Join(s.dir, manifestName)
}

// loadManifestLocked reads the manifest into memory, tolerating absence (a
// fresh store). On failure the in-memory manifest is left as it was.
func (s *Store) loadManifestLocked() error {
	raw, err := s.fs.ReadFile(s.manifestPath())
	if os.IsNotExist(err) {
		s.man = manifestFile{Version: manifestVersion, Entries: map[string]manifestEntry{}, Segments: map[string]segmentRecord{}}
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint: read manifest: %w", err)
	}
	m, err := parseManifest(raw)
	if err != nil {
		return err
	}
	s.man = m
	return nil
}

// parseManifest decodes manifest bytes, rejecting other versions and any
// segment name segmentName did not issue: recovery renames and unlinks by it.
func parseManifest(raw []byte) (manifestFile, error) {
	var m manifestFile
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("checkpoint: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("checkpoint: manifest version %d, want %d (stores of other versions are not migrated)", m.Version, manifestVersion)
	}
	if m.Entries == nil {
		m.Entries = map[string]manifestEntry{}
	}
	if m.Segments == nil {
		m.Segments = map[string]segmentRecord{}
	}
	for name := range m.Segments {
		var n uint64
		if _, err := fmt.Sscanf(name, "seg-%d"+segmentSuffix, &n); err != nil || name != segmentName(n) || n > m.NextSeg {
			return m, fmt.Errorf("checkpoint: manifest records segment %q, not one this store named", name)
		}
	}
	return m, nil
}

// entryLocked reports the manifest record for vmName. Under content
// addressing the manifest is the sole source of truth: files the manifest
// does not describe are interrupted transactions, rolled back by recovery.
func (s *Store) entryLocked(vmName string) (EntryInfo, bool) {
	key := sanitize(vmName)
	e, ok := s.man.Entries[key]
	if !ok {
		return EntryInfo{}, false
	}
	return EntryInfo{
		Name: key, State: e.State, Digest: e.Digest, Size: e.Size,
		Pages: e.Pages, Reason: e.Reason, UniqueBytes: s.uniqueBytesLocked(key),
	}, true
}

// Entry reports the named VM's store entry, ok=false when none exists.
func (s *Store) Entry(vmName string) (EntryInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entryLocked(vmName)
}

// Entries lists every store entry recorded in the manifest, sorted by name.
func (s *Store) Entries() ([]EntryInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]EntryInfo, 0, len(s.man.Entries))
	for key := range s.man.Entries {
		if info, ok := s.entryLocked(key); ok {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
