package experiments

import (
	"fmt"

	"vecycle/internal/fingerprint"
	"vecycle/internal/memmodel"
	"vecycle/internal/methods"
	"vecycle/internal/sched"
)

// Figure8Result carries the VDI study's per-migration series and the
// aggregate traffic totals quoted in §4.6.
type Figure8Result struct {
	// PerMigration is the Figure 8 plot: for each of the 26 migrations, the
	// traffic as a percentage of the VM's RAM under sender-side dedup and
	// under VeCycle (with dedup, as the paper assumes).
	PerMigration *Table
	// Totals summarizes aggregate traffic per technique.
	Totals *Table

	// Aggregate fractions of the full-migration baseline.
	DedupFraction      float64
	VeCycleFraction    float64
	DirtyDedupFraction float64
}

// Figure8 replays the virtual-desktop consolidation scenario: the author's
// desktop trace, two migrations every weekday (9 am to the workstation,
// 5 pm to the consolidation server), checkpoints left at both hosts.
func Figure8() (*Figure8Result, error) {
	preset := memmodel.Desktop()
	fps, err := traceFor(preset)
	if err != nil {
		return nil, err
	}
	byTime := make(map[int64]*fingerprint.Fingerprint, len(fps))
	for _, f := range fps {
		byTime[f.Taken.Unix()] = f
	}

	schedule := sched.PaperVDISchedule()
	per := &Table{
		Title:   "Figure 8: per-migration traffic [% of RAM]",
		Columns: []string{"migration", "direction", "dedup", "vecycle"},
	}

	// Checkpoints left at each host, keyed by destination of the *next*
	// migration: the 9 am migration lands on the workstation, whose
	// checkpoint is the state the VM had when it left at 5 pm; vice versa
	// for the server.
	checkpoints := map[sched.Direction]*fingerprint.Fingerprint{}
	var senderDedupPages, vecyclePages, dirtyDedupPages, fullPages float64

	for i, mig := range schedule {
		cur, ok := byTime[mig.At.Unix()]
		if !ok {
			return nil, fmt.Errorf("experiments: no fingerprint at %v", mig.At)
		}
		old := checkpoints[mig.Direction] // checkpoint at the destination
		b := methods.Analyze(old, cur)

		dedupFrac := b.Fraction(methods.Dedup)
		vecycleFrac := b.Fraction(methods.HashesDedup)
		per.AddRow(i+1, mig.Direction.String(), 100*dedupFrac, 100*vecycleFrac)

		fullPages += 1
		senderDedupPages += dedupFrac
		vecyclePages += vecycleFrac
		dirtyDedupPages += b.Fraction(methods.DirtyDedup)

		// The VM just left its previous host, which stores a checkpoint of
		// the departing state. That host is the destination of migrations
		// in the opposite direction.
		checkpoints[oppositeDirection(mig.Direction)] = cur
	}

	ram := float64(preset.Config.RAMBytes)
	toGB := func(fracSum float64) float64 { return fracSum * ram / 1e9 }

	res := &Figure8Result{
		PerMigration:       per,
		DedupFraction:      senderDedupPages / fullPages,
		VeCycleFraction:    vecyclePages / fullPages,
		DirtyDedupFraction: dirtyDedupPages / fullPages,
	}
	totals := &Table{
		Title:   "Figure 8 totals: aggregate migration traffic over 26 migrations",
		Columns: []string{"technique", "traffic_GB", "fraction_of_baseline"},
	}
	totals.AddRow("full migration", fmt.Sprintf("%.0f", toGB(fullPages)), 1.0)
	totals.AddRow("sender-side dedup", fmt.Sprintf("%.0f", toGB(senderDedupPages)), res.DedupFraction)
	totals.AddRow("dirty+dedup", fmt.Sprintf("%.0f", toGB(dirtyDedupPages)), res.DirtyDedupFraction)
	totals.AddRow("VeCycle (+dedup)", fmt.Sprintf("%.0f", toGB(vecyclePages)), res.VeCycleFraction)
	res.Totals = totals
	return res, nil
}

// oppositeDirection reports where the VM was before a migration: the
// source of a ToWorkstation migration is the server, i.e. the destination
// of a ToServer migration, and vice versa.
func oppositeDirection(d sched.Direction) sched.Direction {
	if d == sched.ToWorkstation {
		return sched.ToServer
	}
	return sched.ToWorkstation
}
