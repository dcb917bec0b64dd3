package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"vecycle/internal/checkpoint"
)

// runStore inspects and repairs a checkpoint store directory:
//
//	vecycle store ls    -store DIR   list entries with state, size and digest
//	vecycle store scrub -store DIR   run the recovery scan and report findings
//	vecycle store gc    -store DIR   collect unreferenced page content
//	vecycle store stat  -store DIR   pool-wide dedup accounting
//
// Opening the store already runs the startup recovery scan (orphaned temp
// files deleted, legacy images adopted, torn segments quarantined); ls shows
// its outcome, scrub reports it explicitly.
func runStore(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: vecycle store <ls|scrub|gc|stat> -store DIR")
	}
	sub := args[0]
	fs := flag.NewFlagSet("vecycle store "+sub, flag.ContinueOnError)
	dir := fs.String("store", "", "checkpoint store directory (required)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-store is required")
	}
	st, err := checkpoint.NewStore(*dir)
	if err != nil {
		return err
	}
	switch sub {
	case "ls":
		return storeLs(st)
	case "scrub":
		return storeScrub(st)
	case "gc":
		return storeGC(st)
	case "stat":
		return storeStat(st)
	default:
		return fmt.Errorf("unknown store subcommand %q (want ls, scrub, gc or stat)", sub)
	}
}

// storeLs prints one line per entry: partial (salvage) and quarantined
// entries are first-class states, not hidden files. SIZE is the entry's
// logical footprint (pages × page size); UNIQUE is the physical content
// only this entry pins in the pool — the difference is shared with other
// entries.
func storeLs(st *checkpoint.Store) error {
	entries, err := st.Entries()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Println("store is empty")
		return nil
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "NAME\tSTATE\tSIZE\tUNIQUE\tDIGEST\tREASON")
	for _, e := range entries {
		digest := e.Digest
		if len(digest) > 12 {
			digest = digest[:12]
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%s\t%s\n",
			e.Name, e.State, e.Size, e.UniqueBytes, digest, e.Reason)
	}
	return w.Flush()
}

// storeGC runs a garbage-collection pass over the content pool and reports
// what it reclaimed.
func storeGC(st *checkpoint.Store) error {
	rep, err := st.GC()
	if err != nil {
		return err
	}
	fmt.Printf("gc: %d segments deleted, %d compacted, %d pages (%d bytes) reclaimed\n",
		rep.SegmentsDeleted, rep.SegmentsCompacted, rep.PagesReclaimed, rep.BytesReclaimed)
	if rep.OrphanFiles > 0 {
		fmt.Printf("  orphan files removed: %d\n", rep.OrphanFiles)
	}
	return nil
}

// storeStat prints the pool-wide dedup accounting: what the resident
// checkpoints claim to hold (logical) against what the pool actually
// stores (physical).
func storeStat(st *checkpoint.Store) error {
	s := st.Stats()
	fmt.Printf("entries:        %d\n", s.Entries)
	fmt.Printf("segments:       %d\n", s.Segments)
	fmt.Printf("objects:        %d\n", s.Objects)
	fmt.Printf("logical bytes:  %d\n", s.LogicalBytes)
	fmt.Printf("physical bytes: %d\n", s.PhysicalBytes)
	fmt.Printf("dedup ratio:    %.2f\n", s.DedupRatio())
	return nil
}

// storeScrub re-runs the recovery scan and reports what it found.
func storeScrub(st *checkpoint.Store) error {
	rep, err := st.Scrub()
	if err != nil {
		return err
	}
	fmt.Printf("scrub: %d entries checked\n", rep.Checked)
	report := func(label string, names []string) {
		if len(names) > 0 {
			fmt.Printf("  %s: %s\n", label, strings.Join(names, ", "))
		}
	}
	report("quarantined", rep.Quarantined)
	report("dropped (image vanished)", rep.Dropped)
	report("temp files removed", rep.TempFiles)
	report("cleanup failed (still on disk)", rep.CleanupFailures)
	// Exit non-zero while any entry (newly or previously caught) remains
	// quarantined, so the command doubles as a health check.
	entries, err := st.Entries()
	if err != nil {
		return err
	}
	bad := 0
	for _, e := range entries {
		if e.State == checkpoint.EntryQuarantined {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("store holds %d quarantined entries", bad)
	}
	return nil
}
