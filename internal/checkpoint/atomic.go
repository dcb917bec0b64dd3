package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"vecycle/internal/faultfs"
)

// Crash-consistent file plumbing. Every durable artifact the store owns —
// segment, page manifest, manifest — reaches its final name through the
// same discipline: write a temp file in the store directory, fsync it,
// rename it over the target, fsync the directory. A crash at any instant
// therefore leaves either the old file or the new one, never a torn hybrid;
// the only window that needs detection (a renamed page manifest whose
// manifest entry still describes the previous bytes) is exactly what the
// startup recovery scan's digest check catches.
//
// A commit does the first step only. It writes its segment and page manifest
// under temp names, updates the in-memory manifest and pool view, and
// returns: the entry is visible (State, Has, Mirror, Entry report it) but not
// yet durable. The rest — fsync, rename, directory fsync, for segments, then
// page manifests, then MANIFEST.json — is one store-wide flush (flushBatch),
// which covers every commit pending when it takes its snapshot of the
// manifest, so commits that wait together share one manifest write. A
// background flusher goroutine starts when a commit leaves work and exits
// when there is none; GC, Remove, Quarantine, Scrub, Verify, Save and Flush
// run the flush themselves before they return, so MANIFEST.json is written in
// one place only. Restore and OpenUnion serve an entry only once its flush is
// done, waiting for it without holding the store lock, so an entry whose bytes
// were never synced is never served.
//
// A flush that fails counts as a crash: the store reads MANIFEST.json back and
// re-runs its startup recovery against the disk, which drops every pending
// commit — a segment never renamed rolls back and the previous entry is
// served; a page manifest renamed ahead of a stale manifest quarantines its
// entry.

// tmpSuffix marks in-flight writes. The recovery scan deletes any leftover
// *.tmp file unconditionally: a temp file that survived to the next start
// is by definition an interrupted write whose transaction never committed.
const tmpSuffix = ".tmp"

// testHookKill, when set, is consulted at named commit points inside the
// store's write paths. Returning a non-nil error aborts the write at that
// point, leaving the on-disk state exactly as a crash there would —
// error-path cleanups are suppressed for killed writes, so the kill-point
// matrix test drives the real recovery code through every window. It is read
// by the background flusher, so it is set atomically. Production code never
// sets it.
var testHookKill atomic.Pointer[func(point string) error]

// testHookHoldFlush, when true, keeps commits from starting the background
// flusher: their flush waits for a call that flushes (Flush, Save, GC, …), so
// a test can hold commits pending. Production code never sets it.
var testHookHoldFlush atomic.Bool

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
	if hook := testHookKill.Load(); hook != nil {
		if err := (*hook)(point); err != nil {
			return &killedError{point: point, err: err}
		}
	}
	return nil
}

// flushBatch is the durable half of the changes made visible since the last
// flush took its snapshot: the commits' segments and page manifests, still
// open under their temp names, and — written last, once for the whole batch —
// the manifest. A batch holding neither files nor commits is a manifest-only
// change (Remove, Quarantine, GC, a recovery).
type flushBatch struct {
	segs []*segWriter  // finished segments, in commit order
	pmfs []*pendingPMF // page manifests, at most one per entry
	man  []byte        // the manifest snapshot, taken under the store lock
	merr error         // why the snapshot could not be taken
	done chan struct{} // closed once the batch is durable or has failed
	err  error         // why it failed; read after done
}

// write runs the batch's sync → rename → directory-sync steps in the order
// recovery relies on: segments, then page manifests, then the manifest. It
// touches only the batch's own files and the manifest, so the background
// flusher runs it without the store lock. The kill points bracket each step
// for the kill-point matrix.
func (b *flushBatch) write(fsys faultfs.FS, dir string) error {
	if err := kill("visible"); err != nil {
		return err
	}
	if b.merr != nil {
		return b.merr
	}
	if len(b.segs) > 0 {
		for _, w := range b.segs {
			if err := w.sync(); err != nil {
				return err
			}
		}
		if err := kill("image-synced"); err != nil {
			return err
		}
		for _, w := range b.segs {
			if err := fsys.Rename(w.path+tmpSuffix, w.path); err != nil {
				return fmt.Errorf("checkpoint: segment rename: %w", err)
			}
		}
		if err := kill("image-renamed"); err != nil {
			return err
		}
		if err := syncDir(fsys, dir); err != nil {
			return err
		}
	}
	if len(b.pmfs) > 0 {
		for _, p := range b.pmfs {
			if err := p.sync(fsys); err != nil {
				return err
			}
		}
		if err := syncDir(fsys, dir); err != nil {
			return err
		}
		if err := kill("pmf-written"); err != nil {
			return err
		}
	}
	return commitManifest(fsys, filepath.Join(dir, manifestName), b.man)
}

// closeFiles closes whatever the batch still holds open, for a batch a failed
// flush drops: recovery's temp sweep then removes the files.
func (b *flushBatch) closeFiles() {
	for _, w := range b.segs {
		if w.f != nil {
			w.f.Close()
			w.f = nil
		}
	}
	for _, p := range b.pmfs {
		p.close()
	}
}

// batchLocked returns the batch collecting changes for the next flush.
func (s *Store) batchLocked() *flushBatch {
	if s.next == nil {
		s.next = &flushBatch{done: make(chan struct{})}
	}
	return s.next
}

// kickLocked starts the background flusher when there is work and none runs.
func (s *Store) kickLocked() {
	if s.next != nil && !s.flusher && !testHookHoldFlush.Load() {
		s.flusher = true
		go s.flushLoop()
	}
}

// flushLoop is the background flusher: it writes batch after batch without
// the store lock until none is left, or one fails.
func (s *Store) flushLoop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.next != nil {
		b := s.takeLocked()
		s.running = b
		s.mu.Unlock()
		err := b.write(s.fs, s.dir)
		s.mu.Lock()
		s.running = nil
		if s.finishLocked(b, err) != nil {
			// A failed flush stops here rather than retrying on the same
			// disk: what recovery left for the manifest waits for the next
			// commit or flush.
			break
		}
	}
	s.flusher = false
}

// takeLocked takes the pending batch and snapshots the manifest it commits.
func (s *Store) takeLocked() *flushBatch {
	b := s.next
	s.next = nil
	raw, err := json.MarshalIndent(s.man, "", "  ")
	if err != nil {
		b.merr = fmt.Errorf("checkpoint: marshal manifest: %w", err)
	}
	b.man = append(raw, '\n')
	return b
}

// flushLocked makes every change made visible so far durable before it
// returns: it waits, without holding s.mu, for a batch the background flusher
// is writing, then writes what is left itself, under s.mu. It returns the
// first error among the batches it waited for or wrote.
func (s *Store) flushLocked() error {
	var first error
	for s.running != nil {
		b := s.running
		s.mu.Unlock()
		<-b.done
		s.mu.Lock()
		if first == nil {
			first = b.err
		}
	}
	if s.next != nil {
		b := s.takeLocked()
		if err := s.finishLocked(b, b.write(s.fs, s.dir)); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Flush makes every commit made visible before the call durable and returns
// the error of a flush it waited for or ran that failed; the store has then
// recovered as from a crash, serving each entry's previous commit or
// quarantining it. A commit's own outcome is its stream's Durable.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

// finishLocked closes out a written batch. Its files leave Store.inflight and
// its entries become servable. A failed write — not a simulated crash, which
// leaves everything as it lies — drops every pending commit, this batch's and
// the next one's, and re-runs recovery against the disk.
func (s *Store) finishLocked(b *flushBatch, err error) error {
	batches := []*flushBatch{b}
	if err != nil && !killed(err) && s.next != nil {
		batches = append(batches, s.next)
		s.next = nil
	}
	for _, d := range batches {
		for _, w := range d.segs {
			delete(s.inflight, filepath.Base(w.path)+tmpSuffix)
		}
		for _, p := range d.pmfs {
			delete(s.inflight, filepath.Base(p.tmp))
		}
	}
	if err != nil && !killed(err) {
		for _, d := range batches {
			d.closeFiles()
		}
		clear(s.waiting)
		if rerr := s.reloadLocked(); rerr != nil {
			err = errors.Join(err, rerr)
		}
	}
	for key, w := range s.waiting {
		if w == b {
			delete(s.waiting, key)
		}
	}
	for _, d := range batches {
		d.err = err
		close(d.done)
	}
	return err
}

// awaitLocked waits, without holding s.mu, until the named entry's newest
// commit has been flushed — or, for key "" (no sanitized name is empty), until
// every entry's has.
func (s *Store) awaitLocked(key string) {
	for {
		b := s.waiting[key]
		if key == "" {
			for _, w := range s.waiting {
				b = w
				break
			}
		}
		if b == nil {
			return
		}
		s.kickLocked()
		s.mu.Unlock()
		<-b.done
		s.mu.Lock()
	}
}

// commitManifest atomically persists a manifest snapshot — the transaction
// commit point of every store change. Its one caller is the flush.
func commitManifest(fsys faultfs.FS, path string, raw []byte) error {
	if err := atomicWriteFile(fsys, path, raw, 0o644); err != nil {
		return err
	}
	return kill("manifest-committed")
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
