// Package faultfs is the storage-side sibling of core.FaultConn: a thin
// filesystem seam that internal/checkpoint routes every file operation
// through, plus a deterministic fault injector that can make any single
// operation site fail with EIO, ENOSPC, a torn write, or added latency.
//
// Production code uses the OS passthrough (the zero-cost default); chaos
// tests wrap it with an Injector armed with per-op-site schedules. The
// seam is deliberately restricted to the handful of calls the checkpoint
// store actually makes — it is not a general VFS.
package faultfs

import (
	"io"
	"os"
)

// File is the subset of *os.File the checkpoint store uses. *os.File
// implements it directly, so the passthrough adds no wrapper object.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.Closer

	// Name reports the path the file was opened with.
	Name() string
	// Stat reports file metadata.
	Stat() (os.FileInfo, error)
	// Sync flushes the file to stable storage.
	Sync() error
}

// FS is the filesystem seam under internal/checkpoint. Every durable
// store operation goes through one of these calls, which makes each of
// them an injectable fault site.
type FS interface {
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// Create truncate-creates a file for writing.
	Create(name string) (File, error)
	// Open opens a file for reading.
	Open(name string) (File, error)
	// OpenFile is the generalised open.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
}

// OS is the passthrough FS used outside chaos tests.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
