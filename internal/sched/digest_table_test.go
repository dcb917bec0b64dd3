package sched

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"vecycle/internal/core"
	"vecycle/internal/vm"
)

// TestDigestTableExactCounts pins what "one digest per page" promises, through
// two hosts and in bytes. A returning source hashes exactly the pages the
// guest rewrote since it arrived, the destination's probes hash nothing, and
// neither host's checkpoint save hashes a byte — the wire checksum is the
// store key. A retry resuming from a salvage image
// hashes nothing: the cut
// attempt wrote its digests back to the guest's table. Each save books every
// page once: hashed plus avoided is the guest. The registry's
// series must tell the same story as the engine's metrics.
func TestDigestTableExactCounts(t *testing.T) {
	const pages = 1024
	const rewritten = pages / 20 // 5 %
	const mem = int64(pages) * vm.PageSize
	ctx := context.Background()

	arrivals := make(chan core.DestResult, 1) // one migration in flight at a time
	hosts := map[string]*Host{}
	addrs := map[string]string{}
	for _, name := range []string{"alpha", "beta"} {
		h := newHost(t, name)
		h.SaveArrivals = true
		h.OnArrival = func(_ *vm.VM, res core.DestResult) { arrivals <- res }
		hosts[name], addrs[name] = h, listen(t, h)
	}
	guest := newGuest(t, "vm0", pages)
	if err := guest.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	hosts["alpha"].AddVM(guest)

	rng := rand.New(rand.NewSource(42))
	// rewrite gives exactly k distinct pages of the guest on host fresh
	// content.
	rewrite := func(host string, k int) {
		t.Helper()
		v, ok := hosts[host].VM("vm0")
		if !ok {
			t.Fatalf("vm0 is not on %s", host)
		}
		buf := make([]byte, vm.PageSize)
		for _, p := range rng.Perm(pages)[:k] {
			rng.Read(buf)
			v.WritePage(p, buf)
		}
	}
	stage := func(host, stage string) int64 {
		h := hosts[host]
		return int64(h.obs.hashBytes.With(h.name, stage).Value())
	}
	avoided := func(host string) int64 {
		h := hosts[host]
		return int64(h.obs.hashAvoided.With(h.name).Value())
	}
	// hop migrates vm0 from→to and checks what each side hashed: the engine's
	// metrics and the registry series agree (both describe the successful
	// attempt), the source's encode pass digested wantEncode bytes and the
	// probes none. On a single-attempt leg it also checks the store's share:
	// saves hash nothing and each save recycles one guest of digests.
	hop := func(from, to string, opts MigrateOptions, wantEncode int64) (core.Metrics, core.DestResult) {
		t.Helper()
		opts.Recycle, opts.KeepCheckpoint = true, true
		leaving, ok := hosts[from].VM("vm0")
		if !ok {
			t.Fatalf("vm0 is not on %s", from)
		}
		want := leaving.Fingerprint64()
		enc0, probe0 := stage(from, "encode"), stage(to, "probe")
		type storeCounts struct{ saveKeys, avoided int64 }
		before := map[string]storeCounts{}
		for _, h := range []string{from, to} {
			before[h] = storeCounts{stage(h, "save_keys"), avoided(h)}
		}
		m, err := hosts[from].MigrateTo(ctx, addrs[to], "vm0", opts)
		if err != nil {
			t.Fatalf("%s→%s: %v", from, to, err)
		}
		var res core.DestResult
		select {
		case res = <-arrivals:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s→%s: no arrival", from, to)
		}
		landed, _ := hosts[to].VM("vm0")
		fingerprintEqual(t, want, landed)
		if m.HashBytes != wantEncode {
			t.Errorf("%s→%s: source hashed %d bytes, want %d", from, to, m.HashBytes, wantEncode)
		}
		if got := stage(from, "encode") - enc0; got != wantEncode {
			t.Errorf("%s→%s: vecycle_hash_bytes_total{stage=encode} grew by %d, want %d", from, to, got, wantEncode)
		}
		if res.Metrics.ProbeHashBytes != 0 {
			t.Errorf("%s→%s: destination probes hashed %d bytes, want 0", from, to, res.Metrics.ProbeHashBytes)
		}
		if got := stage(to, "probe") - probe0; got != 0 {
			t.Errorf("%s→%s: vecycle_hash_bytes_total{stage=probe} grew by %d, want 0", from, to, got)
		}
		if res.Metrics.HashBytes != 0 {
			t.Errorf("%s→%s: round-end tracking hashed %d bytes, want 0", from, to, res.Metrics.HashBytes)
		}
		if opts.Retry.Attempts > 1 {
			return m, res // failed attempts restore and salvage too
		}
		const perSaveHashed, perSaveAvoided = 0, mem
		// The destination folds its engine metrics in after OnArrival returns.
		engine := map[string]int64{from: m.HashAvoidedBytes, to: res.Metrics.HashAvoidedBytes}
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline) &&
			avoided(to)-before[to].avoided < engine[to]+perSaveAvoided; {
			time.Sleep(time.Millisecond)
		}
		for _, h := range []string{from, to} {
			if got := stage(h, "save_keys") - before[h].saveKeys; got != perSaveHashed {
				t.Errorf("%s→%s: %s's vecycle_hash_bytes_total{stage=save_keys} grew by %d, want %d", from, to, h, got, perSaveHashed)
			}
			if got, want := avoided(h)-before[h].avoided, engine[h]+perSaveAvoided; got != want {
				t.Errorf("%s→%s: %s's vecycle_hash_avoided_bytes_total grew by %d, want %d (engine %d + save %d)",
					from, to, h, got, want, engine[h], perSaveAvoided)
			}
		}
		return m, res
	}

	// First visit: a guest that never migrated has an empty table.
	m, _ := hop("alpha", "beta", MigrateOptions{}, mem)
	if m.HashAvoidedBytes != 0 {
		t.Errorf("first visit took %d bytes of digests from an empty table", m.HashAvoidedBytes)
	}

	// Returning legs: only the rewritten pages are hashed.
	for i, leg := range [][2]string{{"beta", "alpha"}, {"alpha", "beta"}, {"beta", "alpha"}} {
		rewrite(leg[0], rewritten)
		m, res := hop(leg[0], leg[1], MigrateOptions{}, rewritten*vm.PageSize)
		if m.PagesFull != rewritten || m.PagesKept != pages-rewritten || res.Metrics.PagesKept != pages-rewritten {
			t.Errorf("leg %d: %d full pages, %d kept at the source and %d at the destination, want %d, %d and %d",
				i, m.PagesFull, m.PagesKept, res.Metrics.PagesKept, rewritten, pages-rewritten, pages-rewritten)
		}
		// A kept page's digest comes from the table, not from hashing: it is
		// hash work avoided, so hashed plus avoided is still the guest.
		if got, want := m.HashAvoidedBytes, mem-rewritten*vm.PageSize; got != want || m.HashBytes+got != mem {
			t.Errorf("leg %d: source took %d bytes of digests from the table and hashed %d, want %d and %d",
				i, got, m.HashBytes, want, mem-want)
		}
	}

	// A cut mid-round leaves a salvage image at the destination; the retry
	// bootstraps from it. The cut attempt encoded all of round one before its
	// first write and wrote those digests back to the guest's table, so the
	// retry hashes nothing; the partial restore seeds the table from its keys
	// as a complete one does.
	rewrite("alpha", rewritten)
	var handled atomic.Int64 // beta's failed incoming handlers: the dialer's barrier
	hosts["beta"].OnError = func(error) { handled.Add(1) }
	cd := &chaosDialer{t: t, schedule: []int64{100_000}, handled: &handled}
	hosts["alpha"].DialFunc = cd.dial
	retryAtOnce(hosts["alpha"])
	_, res := hop("alpha", "beta", MigrateOptions{
		Retry: RetryPolicy{Attempts: 2}}, 0)
	if cd.dials.Load() != 2 || !res.ResumedFromPartial {
		t.Errorf("%d dials, resumed from partial: %v; want a cut attempt and a retry that resumes",
			cd.dials.Load(), res.ResumedFromPartial)
	}
	hosts["alpha"].DialFunc = nil
}
