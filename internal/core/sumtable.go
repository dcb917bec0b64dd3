package core

import "vecycle/internal/checksum"

// SumTable records, on the migration source, the digest of each page's most
// recently sent content as a byproduct of encoding it — read from the guest's
// digest table or computed by the encoder, either kind — so the departure
// checkpoint's Save reuses those digests instead of re-scanning the image.
// (The destination needs no such table: its installs record straight into the
// arriving guest's own digest table, vm.VM.)
//
// Concurrency: the source engine's encode loop is the table's one writer,
// and the caller reads it only after MigrateSource returned.
//
// The zero table (or a nil pointer) is inert: every method is nil-safe and
// the engine sizes it per attempt via reset, so a host can allocate one with
// NewSumTable, hand it to successive retry attempts, and read it only after
// a success.
type SumTable struct {
	alg  checksum.Algorithm
	sums []checksum.Sum
	have []bool
}

// NewSumTable returns an empty table for the engine to fill. Pass it as
// SourceOptions.SentSums; the engine sizes and resets it per attempt.
func NewSumTable() *SumTable {
	return &SumTable{}
}

// reset prepares the table for one migration attempt over a VM of `pages`
// pages digested under alg, discarding anything an earlier attempt recorded
// (a failed attempt's partial entries must never leak into the next).
func (t *SumTable) reset(alg checksum.Algorithm, pages int) {
	if t == nil {
		return
	}
	t.alg = alg
	if cap(t.sums) < pages {
		t.sums = make([]checksum.Sum, pages)
		t.have = make([]bool, pages)
		return
	}
	t.sums = t.sums[:pages]
	t.have = t.have[:pages]
	for i := range t.have {
		t.have[i] = false
		t.sums[i] = checksum.Sum{}
	}
}

// record notes that page was just sent with content of the given digest.
func (t *SumTable) record(page int, sum checksum.Sum) {
	if t == nil {
		return
	}
	t.sums[page] = sum
	t.have[page] = true
}

// Alg reports the algorithm the recorded digests use (the migration's
// negotiated hash). Zero until the engine has reset the table.
func (t *SumTable) Alg() checksum.Algorithm {
	if t == nil {
		return 0
	}
	return t.alg
}

// Sums returns the page-ordered digest slice and true when the last attempt
// covered every page; (nil, false) otherwise — including on a nil table or
// after a failed attempt. The slice is the table's own storage: treat it as
// read-only and gone at the next reset.
func (t *SumTable) Sums() ([]checksum.Sum, bool) {
	if t == nil || len(t.sums) == 0 {
		return nil, false
	}
	for _, ok := range t.have {
		if !ok {
			return nil, false
		}
	}
	return t.sums, true
}
