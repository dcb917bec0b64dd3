package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"vecycle/internal/faultfs"
)

// Crash-consistent file plumbing. Every durable artifact the store owns —
// segment, page manifest, manifest — reaches its final name through the
// same discipline: write a temp file in the store directory, fsync it,
// rename it over the target, fsync the directory. A
// crash at any instant therefore leaves either the old file or the new
// one, never a torn hybrid; the only window that needs detection (a
// renamed image whose manifest entry still describes the previous bytes)
// is exactly what the startup recovery scan's digest check catches.

// tmpSuffix marks in-flight writes. The recovery scan deletes any leftover
// *.tmp file unconditionally: a temp file that survived to the next start
// is by definition an interrupted write whose transaction never committed.
const tmpSuffix = ".tmp"

// testHookKill, when non-nil, is consulted at named commit points inside
// the store's write paths. Returning a non-nil error aborts the write at
// that point, leaving the on-disk state exactly as a crash there would —
// error-path cleanups are suppressed for killed writes, so the kill-point
// matrix test drives the real recovery code through every window.
// Production code never sets it.
var testHookKill func(point string) error

// killedError marks a simulated crash injected by testHookKill; cleanup
// paths that would tidy a normal failure leave the disk untouched for it.
type killedError struct {
	point string
	err   error
}

func (e *killedError) Error() string {
	return fmt.Sprintf("checkpoint: simulated crash at %s: %v", e.point, e.err)
}

func (e *killedError) Unwrap() error { return e.err }

func killed(err error) bool {
	var k *killedError
	return errors.As(err, &k)
}

func kill(point string) error {
	if testHookKill != nil {
		if err := testHookKill(point); err != nil {
			return &killedError{point: point, err: err}
		}
	}
	return nil
}

// atomicWriteFile writes data to path via tmp+fsync+rename+dir-fsync,
// with every file operation routed through fsys so each is a fault site.
func atomicWriteFile(fsys faultfs.FS, path string, data []byte, perm os.FileMode) (err error) {
	tmp := path + tmpSuffix
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			fsys.Remove(tmp)
		}
	}()
	if _, err = f.Write(data); err != nil {
		return fmt.Errorf("checkpoint: write %s: %w", tmp, err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmp, err)
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("checkpoint: rename %s: %w", tmp, err)
	}
	return syncDir(fsys, filepath.Dir(path))
}

// syncDir fsyncs a directory so a preceding rename is durable. Filesystems
// that refuse to sync directories (some CI tmpfs mounts) degrade silently:
// the rename itself is still atomic, only its durability is best-effort.
func syncDir(fsys faultfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: open dir %s: %w", dir, err)
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
