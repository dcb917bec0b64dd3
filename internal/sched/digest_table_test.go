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
// neither host's checkpoint save nor the destination's restore hashes a byte —
// the wire checksum is the store key. A delta base is opened without hashing
// either, and a retry resuming from a salvage image hashes nothing: the cut
// attempt wrote its digests back to the guest's table. A post-copy source
// hashes the rewritten pages once, and neither post-copy save hashes any; each
// books every page once: hashed plus avoided is the guest. The registry's
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
	// rewrite changes exactly k distinct pages of the guest on host: wholly
	// (fresh content) or, with partial set, 64 bytes of each — what a delta
	// encodes.
	rewrite := func(host string, k int, partial bool) {
		t.Helper()
		v, ok := hosts[host].VM("vm0")
		if !ok {
			t.Fatalf("vm0 is not on %s", host)
		}
		buf := make([]byte, vm.PageSize)
		for _, p := range rng.Perm(pages)[:k] {
			if partial {
				v.ReadPage(p, buf)
				rng.Read(buf[:64])
			} else {
				rng.Read(buf)
			}
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
	// saves and restores hash nothing and each save recycles one guest of
	// digests.
	hop := func(from, to string, opts MigrateOptions, wantEncode int64) (core.Metrics, core.DestResult) {
		t.Helper()
		opts.Recycle, opts.KeepCheckpoint = true, true
		leaving, ok := hosts[from].VM("vm0")
		if !ok {
			t.Fatalf("vm0 is not on %s", from)
		}
		want := leaving.Fingerprint64()
		enc0, probe0 := stage(from, "encode"), stage(to, "probe")
		type storeCounts struct{ saveKeys, restore, avoided int64 }
		before := map[string]storeCounts{}
		for _, h := range []string{from, to} {
			before[h] = storeCounts{stage(h, "save_keys"), stage(h, "restore"), avoided(h)}
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
		if got := stage(from, "restore") - before[from].restore; got != 0 {
			t.Errorf("%s→%s: the source's restores hashed %d bytes, want 0", from, to, got)
		}
		if got := stage(to, "restore") - before[to].restore; got != 0 {
			t.Errorf("%s→%s: the destination's restore hashed %d bytes, want 0", from, to, got)
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
		rewrite(leg[0], rewritten, false)
		m, res := hop(leg[0], leg[1], MigrateOptions{}, rewritten*vm.PageSize)
		if m.PagesFull != rewritten || res.Metrics.PagesReusedInPlace != pages-rewritten {
			t.Errorf("leg %d: %d full pages and %d reused in place, want %d and %d",
				i, m.PagesFull, res.Metrics.PagesReusedInPlace, rewritten, pages-rewritten)
		}
		if got, want := m.HashAvoidedBytes, mem-rewritten*vm.PageSize; got != want {
			t.Errorf("leg %d: source took %d bytes of digests from the table, want %d", i, got, want)
		}
	}

	// Delta legs: the source opens its own checkpoint of the guest as the
	// delta base — for PageAt only, so hop's "the source's restores hashed 0
	// bytes" holds — and the partly rewritten pages travel as deltas.
	for _, leg := range [][2]string{{"alpha", "beta"}, {"beta", "alpha"}} {
		rewrite(leg[0], rewritten, true)
		m, _ = hop(leg[0], leg[1], MigrateOptions{UseDelta: true}, rewritten*vm.PageSize)
		if m.PagesDelta != rewritten || m.PagesFull != 0 {
			t.Errorf("%s→%s delta leg: %d deltas and %d full pages, want %d and 0",
				leg[0], leg[1], m.PagesDelta, m.PagesFull, rewritten)
		}
	}

	// A cut mid-round leaves a salvage image at the destination; the retry
	// bootstraps from it. The cut attempt encoded all of round one before its
	// first write and wrote those digests back to the guest's table, so the
	// retry hashes nothing; the partial restore seeds the table from its keys
	// as a complete one does.
	rewrite("alpha", rewritten, false)
	var handled atomic.Int64 // beta's failed incoming handlers: the dialer's barrier
	hosts["beta"].OnError = func(error) { handled.Add(1) }
	cd := &chaosDialer{t: t, schedule: []int64{100_000}, handled: &handled}
	hosts["alpha"].DialFunc = cd.dial
	_, res := hop("alpha", "beta", MigrateOptions{
		Retry: RetryPolicy{Attempts: 2, Backoff: time.Millisecond}}, 0)
	if cd.dials.Load() != 2 || !res.ResumedFromPartial {
		t.Errorf("%d dials, resumed from partial: %v; want a cut attempt and a retry that resumes",
			cd.dials.Load(), res.ResumedFromPartial)
	}
	hosts["alpha"].DialFunc = nil

	// Post-copy: both saves key their image from the guest's digest table. The
	// destination's restore seeded it and every fetched or re-read page landed
	// with its digest, so the arrival image hashes nothing. The source
	// completed its table before the manifest — hashing the pages the guest
	// rewrote since it arrived, once — so the departure image hashes nothing
	// either. Each save books the whole guest as avoided, on top of what the
	// engines avoided.
	rewrite("beta", rewritten, false)
	saved := map[string]int64{"alpha": stage("alpha", "save_keys"), "beta": stage("beta", "save_keys")}
	avoided0 := map[string]int64{"alpha": avoided("alpha"), "beta": avoided("beta")}
	leaving, _ := hosts["beta"].VM("vm0")
	want := leaving.Fingerprint64()
	pm, err := hosts["beta"].PostCopyTo(ctx, addrs["alpha"], "vm0")
	if err != nil {
		t.Fatalf("beta→alpha post-copy: %v", err)
	}
	select {
	case res = <-arrivals:
	case <-time.After(10 * time.Second):
		t.Fatal("beta→alpha post-copy: no arrival")
	}
	landed, _ := hosts["alpha"].VM("vm0")
	fingerprintEqual(t, want, landed)
	if pm.HashBytes != rewritten*vm.PageSize || pm.HashBytes+pm.HashAvoidedBytes != mem {
		t.Errorf("post-copy: source hashed %d bytes and avoided %d, want %d hashed of %d",
			pm.HashBytes, pm.HashAvoidedBytes, rewritten*vm.PageSize, mem)
	}
	saveHashed := map[string]int64{"alpha": 0, "beta": 0}
	engine := map[string]int64{"alpha": res.Metrics.HashAvoidedBytes, "beta": pm.HashAvoidedBytes}
	// The destination folds its engine metrics in after OnArrival returns.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline) &&
		avoided("alpha")-avoided0["alpha"] < engine["alpha"]+mem; {
		time.Sleep(time.Millisecond)
	}
	for host, hashed := range saveHashed {
		if got := stage(host, "save_keys") - saved[host]; got != hashed {
			t.Errorf("post-copy: %s's vecycle_hash_bytes_total{stage=save_keys} grew by %d, want %d", host, got, hashed)
		}
		if got, want := avoided(host)-avoided0[host], engine[host]+mem-hashed; got != want {
			t.Errorf("post-copy: %s's vecycle_hash_avoided_bytes_total grew by %d, want %d (engine %d + save %d)",
				host, got, want, engine[host], mem-hashed)
		}
	}
}
