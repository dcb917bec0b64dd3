package checkpoint

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// Pool integrity. A checkpoint may sit on disk for days between migrations
// (the paper's inter-migration times reach a week); silent media corruption
// would otherwise surface only as a hard protocol error mid-migration, or —
// with an unlucky flip in a reused block — not at all on the unverified
// fast path. The content-addressed layout makes every page self-verifying:
// an object's key IS its collision-resistant checksum, so Verify re-reads
// an entry's pages out of the pool and re-derives each key, catching bit
// rot in any segment the entry touches. The startup recovery scan covers
// the complementary whole-file layer (segment and page-manifest digests
// recorded in the manifest), and Restore can be made to verify first via
// the store's VerifyOnRestore knob.

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
	buf := make([]byte, vm.PageSize)
	for i, ref := range refs {
		if _, err := ref.f.ReadAt(buf, ref.off); err != nil {
			return fmt.Errorf("checkpoint: verify %q page %d: %w", vmName, i, err)
		}
		if got := ObjectAlgorithm.Page(buf); got != pageKeys[i] {
			return fmt.Errorf("checkpoint: image %q failed integrity check (page %d stored as object %s, bytes hash to %s)",
				vmName, i, pageKeys[i], got)
		}
	}
	return nil
}

// SetVerifyOnRestore makes every Restore verify the entry's pages first.
// Costs one extra sequential read (plus hashing) before the bootstrap read.
func (s *Store) SetVerifyOnRestore(on bool) { s.verifyOnRestore = on }

func hashFile(fsys faultfs.FS, path string) (string, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, bufio.NewReaderSize(f, 1<<20)); err != nil {
		return "", fmt.Errorf("checkpoint: hash %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
