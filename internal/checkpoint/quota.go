package checkpoint

import (
	"errors"
	"fmt"
	"time"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// ErrQuotaExceeded marks a save (or shrink) that could not fit under the
// configured physical-byte quota even after collecting dead segments and
// evicting every other entry. The degradation ladder treats it like ENOSPC:
// a full store must not fail a completed migration.
var ErrQuotaExceeded = errors.New("checkpoint: store quota exceeded")

// Storage quota management. The paper argues local checkpoint storage is
// "cheap and abundant" (§1), but a host that serves many VMs still needs a
// bound. The quota caps PHYSICAL bytes — deduplicated segment payloads,
// what the disk actually spends — so a host full of near-identical guests
// fits far more logical checkpoint state than the cap suggests. When a Save
// does not fit, the store first collects dead segments, then evicts the
// least-recently-used entries (and collects again) until the new pages fit.
// An entry counts as used when it is saved or restored.

// SetQuota caps the physical bytes of checkpoint pages in the store. A zero
// or negative quota removes the cap. If the pool already exceeds the new
// quota, dead segments are collected and least-recently-used entries
// evicted immediately.
func (s *Store) SetQuota(bytes int64) error {
	s.mu.Lock()
	s.quota = bytes
	err := s.shrinkToQuotaLocked()
	s.mu.Unlock()
	s.drainMetrics()
	return err
}

// Quota reports the configured cap (0 = uncapped).
func (s *Store) Quota() int64 { return s.quota }

// Usage reports the physical payload bytes the object pool occupies — the
// quantity the quota caps. See Stats for the logical/physical breakdown.
func (s *Store) Usage() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.physicalLocked(), nil
}

// entryUsed reports an entry's last-use time — its page manifest's mtime,
// refreshed by touch on every save and restore.
func (s *Store) entryUsed(key string) time.Time {
	st, err := s.fs.Stat(s.pmfPath(key))
	if err != nil {
		return time.Time{} // missing pmf sorts oldest: evict first
	}
	return st.ModTime()
}

// lruVictimLocked picks the least-recently-used evictable entry, skipping
// excludeKey (the entry a Save is about to replace — it is superseded in
// place, never evicted to make room for itself).
func (s *Store) lruVictimLocked(excludeKey string) (string, bool) {
	victim := ""
	var victimUsed time.Time
	for key := range s.man.Entries {
		if key == excludeKey {
			continue
		}
		used := s.entryUsed(key)
		if victim == "" || used.Before(victimUsed) {
			victim, victimUsed = key, used
		}
	}
	return victim, victim != ""
}

// shrinkToQuotaLocked brings the pool back under the quota: collect, then
// evict LRU entries one at a time (collecting after each) until it fits.
func (s *Store) shrinkToQuotaLocked() error {
	if s.quota <= 0 {
		return nil
	}
	for s.physicalLocked() > s.quota {
		if rep, err := s.gcLocked(); err != nil {
			return err
		} else if rep.Reclaimed() {
			continue
		}
		victim, ok := s.lruVictimLocked("")
		if !ok {
			return fmt.Errorf("checkpoint: pool of %d bytes exceeds store quota %d and nothing is evictable: %w", s.physicalLocked(), s.quota, ErrQuotaExceeded)
		}
		if err := s.removeLocked(victim); err != nil {
			return err
		}
	}
	return nil
}

// fitQuotaLocked makes room for a Save that must write the pages in
// newSlots (indices into pageKeys) on top of the slots its stream already
// wrote, whose keys are streamed. Eviction can free objects the save was
// counting on reusing, so the missing set is recomputed after every pass;
// the final missing set is returned. selfKey is never evicted.
func (s *Store) fitQuotaLocked(selfKey string, pageKeys []checksum.Sum, newSlots []int, streamed map[checksum.Sum]struct{}) ([]int, error) {
	for {
		pages := len(streamed)
		for _, i := range newSlots {
			if _, ok := streamed[pageKeys[i]]; !ok {
				pages++
			}
		}
		incoming := int64(pages) * vm.PageSize
		if s.physicalLocked()+incoming <= s.quota {
			return newSlots, nil
		}
		if rep, err := s.gcLocked(); err != nil {
			return nil, err
		} else if rep.Reclaimed() {
			newSlots = s.missingLocked(selfKey, pageKeys)
			continue
		}
		victim, ok := s.lruVictimLocked(selfKey)
		if !ok {
			return nil, fmt.Errorf("checkpoint: %d incoming bytes exceed store quota %d: %w", incoming, s.quota, ErrQuotaExceeded)
		}
		if err := s.removeLocked(victim); err != nil {
			return nil, err
		}
		if rep, err := s.gcLocked(); err != nil {
			return nil, err
		} else if !rep.Reclaimed() {
			// The victim's objects were all shared; its removal freed
			// nothing physical. Keep evicting — the loop terminates because
			// each pass removes one entry and entries are finite.
			if _, stillMore := s.lruVictimLocked(selfKey); !stillMore {
				return nil, fmt.Errorf("checkpoint: %d incoming bytes exceed store quota %d: %w", incoming, s.quota, ErrQuotaExceeded)
			}
		}
		newSlots = s.missingLocked(selfKey, pageKeys)
	}
}

// touch marks an entry as recently used, so Restore refreshes its LRU
// position.
func (s *Store) touch(vmName string) {
	now := time.Now()
	// Best effort: a failed utimes only degrades eviction ordering.
	_ = s.fs.Chtimes(s.pmfPath(vmName), now, now)
}
