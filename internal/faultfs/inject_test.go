package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a.txt")
	f, err := OS.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := OS.ReadFile(p)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	ents, err := OS.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := OS.Rename(p, filepath.Join(dir, "b.txt")); err != nil {
		t.Fatal(err)
	}
	if err := OS.Remove(filepath.Join(dir, "b.txt")); err != nil {
		t.Fatal(err)
	}
}

func TestInjectEIOOnCreate(t *testing.T) {
	in := NewInjector(Fault{Op: OpCreate, Path: ".seg"})
	fsys := in.FS(OS)
	dir := t.TempDir()

	// Non-matching path is untouched.
	f, err := fsys.Create(filepath.Join(dir, "x.pmf"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Matching path fails with EIO (the default errno) exactly once.
	if _, err := fsys.Create(filepath.Join(dir, "x.seg")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO, got %v", err)
	}
	f, err = fsys.Create(filepath.Join(dir, "y.seg"))
	if err != nil {
		t.Fatalf("second create should pass: %v", err)
	}
	f.Close()

	shots := in.Shots()
	if len(shots) != 1 || shots[0].Op != OpCreate || !errors.Is(shots[0].Err, ErrEIO) {
		t.Fatalf("shots = %+v", shots)
	}
}

func TestInjectAfterAndTimes(t *testing.T) {
	in := NewInjector(Fault{Op: OpRemove, After: 2, Times: 2, Err: ErrENOSPC})
	fsys := in.FS(OS)
	dir := t.TempDir()
	mk := func(name string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var errs []error
	for i := 0; i < 6; i++ {
		errs = append(errs, fsys.Remove(mk("f")))
	}
	for i, want := range []bool{false, false, true, true, false, false} {
		if got := errs[i] != nil; got != want {
			t.Fatalf("call %d: err=%v, want fail=%v", i, errs[i], want)
		}
	}
	if !errors.Is(errs[2], syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", errs[2])
	}
}

func TestInjectForever(t *testing.T) {
	in := NewInjector(Fault{Op: OpSync, Times: -1})
	fsys := in.FS(OS)
	f, err := fsys.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 3; i++ {
		if err := f.Sync(); !errors.Is(err, ErrEIO) {
			t.Fatalf("sync %d: want EIO, got %v", i, err)
		}
	}
}

func TestTornWrite(t *testing.T) {
	in := NewInjector(Fault{Op: OpWrite, TornBytes: 3})
	fsys := in.FS(OS)
	p := filepath.Join(t.TempDir(), "f")
	f, err := fsys.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, ErrTornWrite) {
		t.Fatalf("Write = %d, %v; want 3, ErrTornWrite", n, err)
	}
	// Subsequent writes pass (Times defaults to once).
	if _, err := f.Write([]byte("ghi")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := os.ReadFile(p)
	if err != nil || string(got) != "abcghi" {
		t.Fatalf("on-disk = %q, %v; torn prefix should have landed", got, err)
	}
}

func TestReadFaults(t *testing.T) {
	p := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(p, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(Fault{Op: OpReadAt, After: 1})
	fsys := in.FS(OS)
	f, err := fsys.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 3)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("first readat should pass: %v", err)
	}
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, ErrEIO) {
		t.Fatalf("second readat: want EIO, got %v", err)
	}
}

func TestLatencyOnly(t *testing.T) {
	in := NewInjector(Fault{Op: OpReadFile, Latency: 30 * time.Millisecond, Times: -1})
	fsys := in.FS(OS)
	p := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(p, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := fsys.ReadFile(p); err != nil {
		t.Fatalf("latency-only rule must not error: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("readfile returned in %v, want >=30ms latency", d)
	}
	if shots := in.Shots(); len(shots) != 1 || shots[0].Err != nil {
		t.Fatalf("shots = %+v", shots)
	}
}

func TestOpenFileCreateFlagRouting(t *testing.T) {
	in := NewInjector(Fault{Op: OpCreate, Times: -1})
	fsys := in.FS(OS)
	p := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644); err == nil {
		t.Fatal("O_CREATE open should hit the create rule")
	}
	f, err := fsys.OpenFile(p, os.O_RDONLY, 0)
	if err != nil {
		t.Fatalf("plain open must not hit the create rule: %v", err)
	}
	f.Close()
}

func TestLabel(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{ErrTornWrite, "torn"},
		{syscall.ENOSPC, "enospc"},
		{syscall.EDQUOT, "enospc"},
		{syscall.EIO, "eio"},
		{os.ErrNotExist, "notexist"},
		{errors.New("weird"), "other"},
	}
	for _, c := range cases {
		if got := Label(c.err); got != c.want {
			t.Errorf("Label(%v) = %q, want %q", c.err, got, c.want)
		}
	}
	// Wrapped errors classify the same way.
	in := NewInjector(Fault{Op: OpRename, Err: ErrENOSPC})
	fsys := in.FS(OS)
	err := fsys.Rename("a", "b")
	if Label(err) != "enospc" {
		t.Errorf("wrapped rename error: Label = %q", Label(err))
	}
}
