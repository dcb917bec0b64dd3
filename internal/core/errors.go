package core

import (
	"fmt"

	"vecycle/internal/faultfs"
)

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
	// StageFlush: the store flush that makes a committed checkpoint durable,
	// behind the migration that saved it.
	StageFlush = "flush"
)

// MigrationError is a migration-path failure that names the stage it
// happened at and, when it was storage-borne, the fault: the destination
// quarantines the entry a recycle-read failure came from, and the metrics
// and traces label the rung by both. Whether the migration is worth another
// attempt is decided by the scheduler's one predicate (sched.Retryable).
type MigrationError struct {
	// Stage is one of the Stage* constants.
	Stage string
	// Fault is the storage-fault label ("eio", "enospc", "torn", ...) or
	// empty when the failure was not storage-borne.
	Fault string
	// Err is the underlying cause.
	Err error
}

func (e *MigrationError) Error() string {
	if e.Fault != "" {
		return fmt.Sprintf("migration %s (%s): %v", e.Stage, e.Fault, e.Err)
	}
	return fmt.Sprintf("migration %s: %v", e.Stage, e.Err)
}

func (e *MigrationError) Unwrap() error { return e.Err }

// recycleReadErr marks a failed read of a recycled page out of the local
// checkpoint store mid-merge. The transfer's data is intact at the source,
// so a fresh attempt (resending the affected pages over the wire after the
// failing entry is quarantined) recovers.
func recycleReadErr(err error) error {
	return &MigrationError{Stage: StageRecycleRead, Fault: faultfs.Label(err), Err: err}
}
