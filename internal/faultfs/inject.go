package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Op names a fault site: one kind of filesystem call the seam exposes.
type Op string

// Fault sites. OpCreate covers Create and any OpenFile with O_CREATE;
// OpWrite/OpReadAt/OpRead/OpSync/OpClose fire on the per-file handle
// operations of files opened through an injected FS.
const (
	OpMkdir    Op = "mkdir"
	OpCreate   Op = "create"
	OpOpen     Op = "open"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpReadFile Op = "readfile"
	OpReadDir  Op = "readdir"
	OpRead     Op = "read"
	OpReadAt   Op = "readat"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
)

// Canonical injected errnos. They are plain syscall errnos wrapped with
// context, so errors.Is(err, faultfs.ErrEIO) works on anything the
// injector produced and on real kernel errors alike.
var (
	// ErrEIO models an unreadable/unwritable sector.
	ErrEIO error = syscall.EIO
	// ErrENOSPC models a full disk.
	ErrENOSPC error = syscall.ENOSPC
)

// ErrTornWrite marks an injected torn write: part of the payload reached
// the file before the failure. It wraps EIO semantics on the wire but
// carries its own identity so tests and metrics can tell the classes
// apart.
var ErrTornWrite = errors.New("faultfs: injected torn write")

// Fault is one armed fault rule. The zero value of every optional field
// means "any": a Fault{Op: OpWrite, Err: ErrEIO} fails every write on
// every path.
type Fault struct {
	// Op restricts the rule to one operation kind; empty matches all.
	Op Op
	// Path is a substring the target path must contain ("" matches all).
	// Store fault sites are usually selected by suffix: ".seg", ".pmf",
	// "MANIFEST.json".
	Path string
	// After lets this many matching calls through before the rule fires.
	After int
	// Times caps how often the rule fires: 0 means once, n>0 means n
	// times, negative means every matching call forever.
	Times int
	// Err is the injected error. Defaults to ErrEIO, or ErrTornWrite
	// when TornBytes is set.
	Err error
	// TornBytes, on OpWrite, delivers this many bytes of the payload to
	// the underlying file before returning the error — a torn write.
	TornBytes int
	// Latency delays the operation before it proceeds (or fails).
	Latency time.Duration
}

// Shot records one fired fault, for test assertions.
type Shot struct {
	// Op is the operation the fault fired on.
	Op Op
	// Path is the target path of that operation.
	Path string
	// Err is the error that was injected (nil for latency-only rules).
	Err error
}

// Injector applies deterministic Fault rules to an underlying FS. Rules
// are evaluated in arming order; the first rule that matches and is due
// fires. All methods are safe for concurrent use.
type Injector struct {
	mu     sync.Mutex
	faults []*armedFault
	shots  []Shot
}

type armedFault struct {
	Fault
	seen  int
	fired int
}

// NewInjector returns an Injector armed with the given rules.
func NewInjector(faults ...Fault) *Injector {
	in := &Injector{}
	for _, f := range faults {
		in.Arm(f)
	}
	return in
}

// Arm appends one fault rule.
func (in *Injector) Arm(f Fault) {
	if f.Err == nil {
		switch {
		case f.TornBytes > 0:
			f.Err = ErrTornWrite
		case f.Latency == 0:
			f.Err = ErrEIO
		}
		// Err == nil with Latency set stays a latency-only rule.
	}
	in.mu.Lock()
	in.faults = append(in.faults, &armedFault{Fault: f})
	in.mu.Unlock()
}

// Disarm clears all rules; already-recorded shots are kept.
func (in *Injector) Disarm() {
	in.mu.Lock()
	in.faults = nil
	in.mu.Unlock()
}

// Shots returns a copy of every fault fired so far, in order.
func (in *Injector) Shots() []Shot {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Shot(nil), in.shots...)
}

// check consults the rules for one operation. It returns the number of
// bytes a torn write should deliver (0 for none) and the injected error
// (nil to let the operation proceed).
func (in *Injector) check(op Op, path string) (torn int, err error) {
	in.mu.Lock()
	var due *armedFault
	for _, f := range in.faults {
		if f.Op != "" && f.Op != op {
			continue
		}
		if f.Path != "" && !strings.Contains(path, f.Path) {
			continue
		}
		f.seen++
		if f.seen <= f.After {
			continue
		}
		max := f.Times
		if max == 0 {
			max = 1
		}
		if max > 0 && f.fired >= max {
			continue
		}
		f.fired++
		due = f
		break
	}
	if due == nil {
		in.mu.Unlock()
		return 0, nil
	}
	errOut := due.Err
	if errOut == nil && due.TornBytes > 0 {
		errOut = ErrTornWrite
	}
	var wrapped error
	if errOut != nil {
		wrapped = fmt.Errorf("faultfs: injected %s %s: %w", op, path, errOut)
	}
	in.shots = append(in.shots, Shot{Op: op, Path: path, Err: wrapped})
	latency := due.Latency
	in.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	return due.TornBytes, wrapped
}

// FS wraps base so every operation consults the injector first. Files
// opened through the wrapped FS are themselves wrapped, so per-handle
// operations (write, readat, sync, close) are fault sites too.
func (in *Injector) FS(base FS) FS {
	return &faultFS{base: base, in: in}
}

type faultFS struct {
	base FS
	in   *Injector
}

func (f *faultFS) MkdirAll(path string, perm os.FileMode) error {
	if _, err := f.in.check(OpMkdir, path); err != nil {
		return err
	}
	return f.base.MkdirAll(path, perm)
}

func (f *faultFS) Create(name string) (File, error) {
	if _, err := f.in.check(OpCreate, name); err != nil {
		return nil, err
	}
	file, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{base: file, path: name, in: f.in}, nil
}

func (f *faultFS) Open(name string) (File, error) {
	if _, err := f.in.check(OpOpen, name); err != nil {
		return nil, err
	}
	file, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{base: file, path: name, in: f.in}, nil
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	op := OpOpen
	if flag&os.O_CREATE != 0 {
		op = OpCreate
	}
	if _, err := f.in.check(op, name); err != nil {
		return nil, err
	}
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{base: file, path: name, in: f.in}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if _, err := f.in.check(OpRename, newpath); err != nil {
		return err
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error {
	if _, err := f.in.check(OpRemove, name); err != nil {
		return err
	}
	return f.base.Remove(name)
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	if _, err := f.in.check(OpReadFile, name); err != nil {
		return nil, err
	}
	return f.base.ReadFile(name)
}

func (f *faultFS) ReadDir(name string) ([]os.DirEntry, error) {
	if _, err := f.in.check(OpReadDir, name); err != nil {
		return nil, err
	}
	return f.base.ReadDir(name)
}

type faultFile struct {
	base File
	path string
	in   *Injector
}

func (f *faultFile) Read(p []byte) (int, error) {
	if _, err := f.in.check(OpRead, f.path); err != nil {
		return 0, err
	}
	return f.base.Read(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if _, err := f.in.check(OpReadAt, f.path); err != nil {
		return 0, err
	}
	return f.base.ReadAt(p, off)
}

func (f *faultFile) Write(p []byte) (int, error) {
	torn, err := f.in.check(OpWrite, f.path)
	if err != nil {
		n := 0
		if torn > 0 {
			if torn > len(p) {
				torn = len(p)
			}
			n, _ = f.base.Write(p[:torn])
		}
		return n, err
	}
	return f.base.Write(p)
}

func (f *faultFile) Sync() error {
	if _, err := f.in.check(OpSync, f.path); err != nil {
		return err
	}
	return f.base.Sync()
}

func (f *faultFile) Close() error {
	if _, err := f.in.check(OpClose, f.path); err != nil {
		f.base.Close()
		return err
	}
	return f.base.Close()
}

func (f *faultFile) Name() string { return f.path }

func (f *faultFile) Stat() (os.FileInfo, error) { return f.base.Stat() }

// Label classifies an error into the short fault vocabulary used by the
// vecycle_degraded_total metric and trace events: "torn", "enospc",
// "eio", "notexist", "timeout", or "other". Empty for nil.
func Label(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrTornWrite), errors.Is(err, io.ErrUnexpectedEOF):
		return "torn"
	case errors.Is(err, syscall.ENOSPC), errors.Is(err, syscall.EDQUOT):
		return "enospc"
	case errors.Is(err, syscall.EIO):
		return "eio"
	case os.IsNotExist(err):
		return "notexist"
	case os.IsTimeout(err):
		return "timeout"
	default:
		return "other"
	}
}
