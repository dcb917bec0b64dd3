package checkpoint

import (
	"fmt"

	"vecycle/internal/checksum"
)

// Pool integrity. A checkpoint may sit on disk for days between migrations
// (the paper's inter-migration times reach a week); silent media corruption
// would otherwise surface only as a hard protocol error mid-migration, or —
// with an unlucky flip in a reused block — not at all on the unverified
// fast path. The content-addressed layout makes every page self-verifying:
// an object's key IS its collision-resistant checksum, so checkPayloads
// re-reads pages and re-derives each key. Verify runs it over one entry's
// pages; the startup recovery scan runs it over every recorded segment,
// after checking the segment's seal (its header and trailer) against the
// manifest. Restore does not verify: an index-only open reads no page.

// Verify re-reads the named VM's pages from the object pool and checks each
// against its recorded object key, after flushing every pending commit. An
// entry with no page keys (absent, or quarantined with an unreadable page
// manifest) verifies trivially.
func (s *Store) Verify(vmName string) error {
	s.mu.Lock()
	if err := s.flushLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	key := sanitize(vmName)
	pageKeys := s.keys[key]
	files := segFiles{}
	refs, err := s.resolveLocked(pageKeys, files)
	s.mu.Unlock()
	defer files.close()
	if err != nil {
		return err
	}
	if err := checkPayloads(refs, pageKeys); err != nil {
		return fmt.Errorf("checkpoint: image %q failed integrity check: %w", vmName, err)
	}
	return nil
}

// corruptPage reports a stored page whose bytes do not hash to its key.
type corruptPage struct {
	slot     int
	key, got checksum.Sum
}

func (e *corruptPage) Error() string {
	return fmt.Sprintf("page %d stored as object %s, bytes hash to %s", e.slot, e.key, e.got)
}

// checkPayloads checks that the page at refs[i] hashes to keys[i] under
// ObjectAlgorithm, reading through scanPages. A page that does not match fails
// as a *corruptPage; a read failure is returned as it is.
func checkPayloads(refs []pageRef, keys []checksum.Sum) error {
	return scanPages(refs, func(i int, page []byte) error {
		if keys[i] == deadSlot {
			return nil
		}
		if got := ObjectAlgorithm.Page(page); got != keys[i] {
			return &corruptPage{slot: i, key: keys[i], got: got}
		}
		return nil
	})
}
