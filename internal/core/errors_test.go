package core

import (
	"bytes"
	"errors"
	"fmt"
	"syscall"
	"testing"
)

// TestMigrationErrorRoundTrip pins the error's contract: it survives
// arbitrary wrapping, errors.As recovers the stage and the fault, and
// errors.Is still reaches the root cause.
func TestMigrationErrorRoundTrip(t *testing.T) {
	root := fmt.Errorf("read block 7: %w", syscall.EIO)
	wrapped := fmt.Errorf("dest: handler: %w", fmt.Errorf("merge: %w", recycleReadErr(root)))

	var me *MigrationError
	if !errors.As(wrapped, &me) {
		t.Fatal("errors.As lost the MigrationError through two wraps")
	}
	if me.Stage != StageRecycleRead || me.Fault != "eio" {
		t.Errorf("recovered {stage=%s fault=%s}, want {recycle-read eio}", me.Stage, me.Fault)
	}
	if !errors.Is(wrapped, syscall.EIO) {
		t.Error("errors.Is lost the root syscall error")
	}
}

// TestFaultConnTornWrite pins the transport torn-write mode: the write
// crossing the threshold delivers exactly the bytes up to it before
// failing, and every later write fails outright — the peer sees a clean
// prefix, never interleaved garbage.
func TestFaultConnTornWrite(t *testing.T) {
	var sink bytes.Buffer
	fc := NewFaultConn(&sink, FaultConfig{TornWriteAfterBytes: 6})

	if n, err := fc.Write([]byte("abcd")); n != 4 || err != nil {
		t.Fatalf("pre-threshold write = (%d, %v), want (4, nil)", n, err)
	}
	n, err := fc.Write([]byte("efgh"))
	if n != 2 || !errors.Is(err, ErrInjectedTornWrite) {
		t.Fatalf("crossing write = (%d, %v), want (2, ErrInjectedTornWrite)", n, err)
	}
	if n, err := fc.Write([]byte("ij")); n != 0 || !errors.Is(err, ErrInjectedTornWrite) {
		t.Fatalf("post-threshold write = (%d, %v), want (0, ErrInjectedTornWrite)", n, err)
	}
	if got := sink.String(); got != "abcdef" {
		t.Errorf("peer saw %q, want the clean 6-byte prefix %q", got, "abcdef")
	}
	if got := fc.BytesWritten(); got != 6 {
		t.Errorf("BytesWritten = %d, want 6", got)
	}
}
