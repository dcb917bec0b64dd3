package checkpoint

import (
	"fmt"

	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
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
// manifest; and Restore can be made to verify first via the store's
// VerifyOnRestore knob.

// Verify re-reads the named VM's pages from the object pool and checks each
// against its recorded object key. An entry with no page keys (absent, or
// quarantined with an unreadable page manifest) verifies trivially.
func (s *Store) Verify(vmName string) error {
	s.mu.Lock()
	key := sanitize(vmName)
	pageKeys := s.keys[key]
	open := map[string]faultfs.File{}
	refs, err := s.resolveLocked(pageKeys, open)
	s.mu.Unlock()
	defer closeAll(openFiles(open))
	if err != nil {
		return err
	}
	if err := checkPayloads(refs, pageKeys); err != nil {
		return fmt.Errorf("checkpoint: image %q failed integrity check: %w", vmName, err)
	}
	return nil
}

// SetVerifyOnRestore makes every Restore verify the entry's pages first.
// Costs one extra sequential read (plus hashing) before the bootstrap read.
func (s *Store) SetVerifyOnRestore(on bool) { s.verifyOnRestore = on }

// corruptPage reports a stored page whose bytes do not hash to its key.
type corruptPage struct {
	slot     int
	key, got checksum.Sum
}

func (e *corruptPage) Error() string {
	return fmt.Sprintf("page %d stored as object %s, bytes hash to %s", e.slot, e.key, e.got)
}

// checkPayloads checks that the page at refs[i] hashes to keys[i] under
// ObjectAlgorithm, reading payloads that sit back to back in one file with a
// single ReadAt, up to restoreSpanPages at a time. A page that does not match
// fails as a *corruptPage; a read failure is returned as it is.
func checkPayloads(refs []pageRef, keys []checksum.Sum) error {
	buf := make([]byte, min(len(refs), restoreSpanPages)*vm.PageSize)
	for p := 0; p < len(refs); {
		q := p + 1
		for q < len(refs) && q-p < restoreSpanPages && refs[q].f == refs[p].f && refs[q].off == refs[q-1].off+vm.PageSize {
			q++
		}
		run := buf[:(q-p)*vm.PageSize]
		if _, err := refs[p].f.ReadAt(run, refs[p].off); err != nil {
			return fmt.Errorf("read page %d: %w", p, err)
		}
		for i := p; i < q; i++ {
			if keys[i] == deadSlot {
				continue
			}
			if got := ObjectAlgorithm.Page(run[(i-p)*vm.PageSize : (i-p+1)*vm.PageSize]); got != keys[i] {
				return &corruptPage{slot: i, key: keys[i], got: got}
			}
		}
		p = q
	}
	return nil
}
