package vm

import (
	"fmt"

	"vecycle/internal/checksum"
)

// The resident page-digest table: one checksum.Default sum and one valid flag
// per page, kept beside the dirty bitmap and the generation tracker and
// guarded by the same lock. It is the single place the migration engine
// learns a resident page's digest without hashing it — a page is hashed once
// per guest write, not once per hop per side. Its algorithm is the wire's and
// the checkpoint store's key, so one digest serves all three.
//
// Invariant: a valid entry equals checksum.Default.Page of the page's current
// bytes. It holds because the table only changes inside the critical section
// that reads or writes the bytes the entry describes: WritePage clears the flag
// under the lock acquisition that sets the dirty bit (so the table is exactly
// as trustworthy as the dirty log), the digest-carrying installs store bytes
// and sum together, the plain installs clear, and CompleteDigests hashes
// under the write lock. Readers take digest and bytes under one read lock.
// The one writer that hashes outside the lock, the migration source, writes
// back through StoreDigests, whose version check is the dirty log itself.
//
// PageSum, RangeSums and Fingerprint64 never consult the table: they are the
// independent reference, under any algorithm, the tests and the benchmark
// verify it against.
type digestTable struct {
	sums  []checksum.Sum
	valid []bool
}

func newDigestTable(pages int) digestTable {
	return digestTable{sums: make([]checksum.Sum, pages), valid: make([]bool, pages)}
}

// InstallPageSum is InstallPage for content whose digest the caller already
// holds: bytes and digest land under one lock acquisition, so they can never
// disagree. sum must be checksum.Default's digest of data.
func (v *VM) InstallPageSum(i int, data []byte, sum checksum.Sum) {
	if len(data) != PageSize {
		panic(fmt.Sprintf("vm: InstallPageSum with %d bytes, want %d", len(data), PageSize))
	}
	one := [1]checksum.Sum{sum}
	v.InstallRangeSums(i, data, one[:])
}

// InstallRangeSums is InstallRange with one digest per installed page.
func (v *VM) InstallRangeSums(start int, data []byte, sums []checksum.Sum) {
	if len(data) == 0 || len(data)%PageSize != 0 || len(sums) != len(data)/PageSize {
		panic(fmt.Sprintf("vm: InstallRangeSums with %d bytes and %d sums", len(data), len(sums)))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	copy(v.mem[start*PageSize:(start+len(sums))*PageSize], data)
	copy(v.digests.sums[start:start+len(sums)], sums)
	for i := range sums {
		v.digests.valid[start+i] = true
	}
	v.epoch++
}

// ReadRangeDigests is ReadRange that also reports, atomically with the copy,
// each page's digest where the table holds one: known[i] says whether sums[i]
// describes the bytes just copied. The migration source reads through it and
// hashes only the pages that came without a digest. sums and known must hold
// at least count entries.
func (v *VM) ReadRangeDigests(start, count int, dst []byte, sums []checksum.Sum, known []bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	copy(dst[:count*PageSize], v.mem[start*PageSize:(start+count)*PageSize])
	copy(sums[:count], v.digests.sums[start:start+count])
	copy(known[:count], v.digests.valid[start:start+count])
}

// Digests reports the digest of count pages from start, appending to out[:0]:
// from the table where it holds one, by hashing the resident bytes under the
// same read lock otherwise. hashed counts the pages that had to be hashed;
// those digests are returned but not recorded (recording needs the write lock
// — see CompleteDigests). The migration destination probes resident content
// through it.
func (v *VM) Digests(start, count int, out []checksum.Sum) (sums []checksum.Sum, hashed int) {
	out = out[:0]
	v.mu.RLock()
	defer v.mu.RUnlock()
	for i := start; i < start+count; i++ {
		if v.digests.valid[i] {
			out = append(out, v.digests.sums[i])
			continue
		}
		out = append(out, checksum.Default.Page(v.pageLocked(i)))
		hashed++
	}
	return out, hashed
}

// DigestEpoch reports a counter advanced by every change the dirty log does
// not show: a HarvestDirty, which clears dirty bits, and every install, which
// rewrites pages without setting them. Read it before the pages whose digests
// go to StoreDigests.
func (v *VM) DigestEpoch() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.epoch
}

// StoreDigests records sums[i], the digest of page pages[i] as read after
// DigestEpoch returned epoch — the migration source's write-back. The dirty
// log is the version check: a dirty page may have been written since the
// read, so it is skipped, and if the epoch moved the whole batch is refused.
func (v *VM) StoreDigests(epoch uint64, pages []int, sums []checksum.Sum) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.epoch != epoch {
		return
	}
	for i, p := range pages {
		if !v.dirty.Test(p) {
			v.digests.sums[p], v.digests.valid[p] = sums[i], true
		}
	}
}

// completeChunkPages bounds how long CompleteDigests holds the write lock:
// hashing 64 pages keeps a running guest's writes waiting well under a
// millisecond.
const completeChunkPages = 64

// CompleteDigests makes the table hold every page's digest, hashing only the
// pages without a valid one, and reports how many it hashed. Afterwards
// Digests over the whole guest hashes nothing until the next write.
func (v *VM) CompleteDigests() (hashed int) {
	n := v.NumPages()
	for start := 0; start < n; start += completeChunkPages {
		end := min(start+completeChunkPages, n)
		v.mu.Lock()
		for i := start; i < end; i++ {
			if !v.digests.valid[i] {
				v.digests.sums[i] = checksum.Default.Page(v.pageLocked(i))
				v.digests.valid[i] = true
				hashed++
			}
		}
		v.mu.Unlock()
	}
	return hashed
}
