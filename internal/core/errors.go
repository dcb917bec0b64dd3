package core

import (
	"context"
	"errors"
	"fmt"

	"vecycle/internal/faultfs"
)

// The migration error taxonomy. Failures on the migration path fall into
// three classes, and the scheduler's retry loop used to tell them apart
// with ad-hoc sentinel checks scattered across call sites. MigrationError
// makes the classification explicit at the point where the failure is
// first understood: the site that knows whether an error is worth a
// retry, fatal, or merely a lost optimization wraps it once, and every
// layer above routes on the class through errors.As instead of
// re-deriving it.

// ErrorClass partitions migration-path failures by how the caller should
// respond.
type ErrorClass uint8

const (
	// ClassUnknown: the error carries no classification; callers fall back
	// to heuristics (Classify).
	ClassUnknown ErrorClass = iota
	// ClassTerminal: retrying cannot help — the destination rejected the
	// migration, the protocol was violated, or the caller canceled.
	ClassTerminal
	// ClassRetryable: a fresh attempt over a fresh connection may succeed
	// (transport faults, torn streams, transient storage reads).
	ClassRetryable
	// ClassDegraded: the migration itself SUCCEEDED but a best-effort side
	// activity (checkpoint persist, salvage write, recycled read) was lost.
	// Never propagated as a migration failure; recorded and dropped.
	ClassDegraded
)

// String returns the class as the label used by metrics and traces.
func (c ErrorClass) String() string {
	switch c {
	case ClassTerminal:
		return "terminal"
	case ClassRetryable:
		return "retryable"
	case ClassDegraded:
		return "degraded"
	default:
		return "unknown"
	}
}

// Stage labels for MigrationError.Stage and the degradation ladder's
// vecycle_degraded_total{stage} series. One vocabulary shared by core,
// sched and the docs.
const (
	// StageKeepCheckpoint: the source-side persist after each successful
	// leg of an outgoing migration, RAM or an attached disk's backing region
	// (the §3.1 "keep the checkpoint" step).
	StageKeepCheckpoint = "keep-checkpoint"
	// StageSaveArrivals: the destination-side persist after a successful
	// incoming migration.
	StageSaveArrivals = "save-arrivals"
	// StageSalvage: persisting the partial image of an interrupted
	// incoming migration.
	StageSalvage = "salvage"
	// StageBootstrap: restoring a local checkpoint to seed an incoming
	// migration (full restore or union announce).
	StageBootstrap = "bootstrap"
	// StageRecycleRead: reading a recycled page out of the local store
	// mid-merge, after the round loop decided to reuse it.
	StageRecycleRead = "recycle-read"
	// StageUnionRead: folding a store entry into a union announcement.
	StageUnionRead = "union-read"
)

// MigrationError is a classified migration-path failure: which stage
// failed, how the caller should respond, and the storage-fault vocabulary
// word (faultfs.Label) when one applies.
type MigrationError struct {
	// Stage is one of the Stage* constants.
	Stage string
	// Class routes the caller's response.
	Class ErrorClass
	// Fault is the storage-fault label ("eio", "enospc", "torn", ...) or
	// empty when the failure was not storage-borne.
	Fault string
	// Err is the underlying cause.
	Err error
}

func (e *MigrationError) Error() string {
	if e.Fault != "" {
		return fmt.Sprintf("migration %s (%s, %s): %v", e.Stage, e.Class, e.Fault, e.Err)
	}
	return fmt.Sprintf("migration %s (%s): %v", e.Stage, e.Class, e.Err)
}

func (e *MigrationError) Unwrap() error { return e.Err }

// Fail wraps err as a classified MigrationError. A nil err returns nil so
// sites can wrap unconditionally.
func Fail(stage string, class ErrorClass, fault string, err error) error {
	if err == nil {
		return nil
	}
	return &MigrationError{Stage: stage, Class: class, Fault: fault, Err: err}
}

// recycleReadErr classifies a failed read of a recycled page out of the
// local checkpoint store mid-merge. The transfer's data is intact at the
// source, so a fresh attempt (resending the affected pages over the wire
// after the failing entry is quarantined) recovers — retryable, never
// terminal.
func recycleReadErr(err error) error {
	return Fail(StageRecycleRead, ClassRetryable, faultfs.Label(err), err)
}

// Classify reports how a migration error should be handled. A
// MigrationError anywhere in the chain is authoritative; otherwise
// rejection, protocol violations and cancellation are terminal, and
// everything else — transport resets, torn streams, storage hiccups — is
// worth a retry.
func Classify(err error) ErrorClass {
	if err == nil {
		return ClassUnknown
	}
	var me *MigrationError
	if errors.As(err, &me) && me.Class != ClassUnknown {
		return me.Class
	}
	switch {
	case errors.Is(err, ErrRejected),
		errors.Is(err, ErrProtocol),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return ClassTerminal
	}
	return ClassRetryable
}
