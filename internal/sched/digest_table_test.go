package sched

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/core"
	"vecycle/internal/vm"
)

// TestDigestTableExactCounts pins what "one digest per page" promises, through
// two hosts and in bytes. Under the default algorithm a returning source
// hashes exactly the pages the guest rewrote since it arrived, the
// destination's probes hash nothing, and neither host's checkpoint save nor
// the destination's restore hashes a byte — the wire checksum is the store
// key. A delta base is opened without hashing either. Under another strong
// algorithm (MD5) no stale digest is trusted, every save and the
// destination's restore pay one guest of rehash each — counted, not hidden —
// the guest still converges page for page, and the checkpoints written are
// ordinary ones: the next default-algorithm leg restores them from their keys.
// The registry's series must tell the same story as the engine's metrics.
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
	// with the stores' key algorithm on the wire, saves and restores hash
	// nothing and each save recycles one guest of digests; under any other,
	// each save and the destination's restore hash one guest, and the source's
	// restore (a delta base, if any) still none.
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
		var perSaveHashed, perSaveAvoided, destRestore int64 = 0, mem, 0
		if res.Alg != checkpoint.ObjectAlgorithm {
			perSaveHashed, perSaveAvoided, destRestore = mem, 0, mem
		}
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
		if got := stage(to, "restore") - before[to].restore; got != destRestore {
			t.Errorf("%s→%s: the destination's restore hashed %d bytes, want %d", from, to, got, destRestore)
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

	// A delta leg: the source opens its own checkpoint of the guest as the
	// delta base — for PageAt only, so hop's "the source's restores hashed 0
	// bytes" holds whatever the leg's algorithm — and the partly rewritten
	// pages travel as deltas.
	rewrite("alpha", rewritten, true)
	m, _ = hop("alpha", "beta", MigrateOptions{UseDelta: true}, rewritten*vm.PageSize)
	if m.PagesDelta != rewritten || m.PagesFull != 0 {
		t.Errorf("delta leg: %d deltas and %d full pages, want %d and 0", m.PagesDelta, m.PagesFull, rewritten)
	}
	rewrite("beta", rewritten, true)
	m, res := hop("beta", "alpha", MigrateOptions{UseDelta: true, Alg: checksum.MD5}, mem)
	if m.PagesDelta != rewritten || res.Alg != checksum.MD5 {
		t.Errorf("MD5 delta leg: %d deltas under %v, want %d under md5", m.PagesDelta, res.Alg, rewritten)
	}

	// Another algorithm: every table entry is the wrong kind of digest, so
	// the source hashes the whole guest and nothing stale crosses over (the
	// leg above). The stores do not key by MD5: the destination's restore
	// rescans, seeding the arriving guest's table under MD5 — so the next MD5
	// leg hashes only what was rewritten — and every save rehashes.
	rewrite("alpha", rewritten, false)
	_, res = hop("alpha", "beta", MigrateOptions{Alg: checksum.MD5}, rewritten*vm.PageSize)
	if res.Alg != checksum.MD5 || res.Metrics.PagesReusedInPlace != pages-rewritten {
		t.Errorf("MD5 leg: alg %v, %d pages reused in place, want md5 and %d",
			res.Alg, res.Metrics.PagesReusedInPlace, pages-rewritten)
	}

	// A cut mid-round leaves a salvage image at the destination; the retry
	// bootstraps from it. The retry hashes the rewritten pages again (the
	// source records nothing back), and the partial restore — a rescan, under
	// MD5 — seeds the table as well as a complete one.
	rewrite("beta", rewritten, false)
	var handled atomic.Int64 // alpha's failed incoming handlers: the dialer's barrier
	hosts["alpha"].OnError = func(error) { handled.Add(1) }
	cd := &chaosDialer{t: t, schedule: []int64{100_000}, handled: &handled}
	hosts["beta"].DialFunc = cd.dial
	_, res = hop("beta", "alpha", MigrateOptions{Alg: checksum.MD5,
		Retry: RetryPolicy{Attempts: 2, Backoff: time.Millisecond}}, rewritten*vm.PageSize)
	if cd.dials.Load() != 2 || !res.ResumedFromPartial {
		t.Errorf("%d dials, resumed from partial: %v; want a cut attempt and a retry that resumes",
			cd.dials.Load(), res.ResumedFromPartial)
	}
	hosts["beta"].DialFunc = nil

	// Stores are algorithm-agnostic: the checkpoints the MD5 legs wrote are
	// keyed like any other, so a default-algorithm return restores them from
	// their keys (hop: the destination's restore hashes 0 bytes). Only the
	// guest's digest table is the wrong kind, once.
	rewrite("alpha", rewritten, false)
	_, res = hop("alpha", "beta", MigrateOptions{}, mem)
	if res.Alg != checksum.Default || res.Metrics.PagesReusedInPlace != pages-rewritten {
		t.Errorf("back to the default: alg %v, %d pages reused in place, want %v and %d",
			res.Alg, res.Metrics.PagesReusedInPlace, checksum.Default, pages-rewritten)
	}

	// Post-copy: both saves key their image from the guest's digest table. The
	// destination's restore seeded it and every fetched or re-read page landed
	// with its digest, so the arrival image hashes nothing; the departure image
	// hashes only the pages the guest rewrote since it arrived.
	rewrite("beta", rewritten, false)
	saved := map[string]int64{"alpha": stage("alpha", "save_keys"), "beta": stage("beta", "save_keys")}
	leaving, _ := hosts["beta"].VM("vm0")
	want := leaving.Fingerprint64()
	if _, err := hosts["beta"].PostCopyTo(ctx, addrs["alpha"], "vm0"); err != nil {
		t.Fatalf("beta→alpha post-copy: %v", err)
	}
	select {
	case <-arrivals:
	case <-time.After(10 * time.Second):
		t.Fatal("beta→alpha post-copy: no arrival")
	}
	landed, _ := hosts["alpha"].VM("vm0")
	fingerprintEqual(t, want, landed)
	for host, want := range map[string]int64{"alpha": 0, "beta": rewritten * vm.PageSize} {
		if got := stage(host, "save_keys") - saved[host]; got != want {
			t.Errorf("post-copy: %s's vecycle_hash_bytes_total{stage=save_keys} grew by %d, want %d", host, got, want)
		}
	}
}

// TestExplicitMD5Converges: a fleet run on the paper's algorithm end to end —
// recycle, keep, save arrivals, both directions — still
// lands every guest byte for byte and still recycles, and what it costs is on
// the books: every checkpoint save rehashes one guest (the MD5 table is no use
// as keys) and every returning destination's restore another.
func TestExplicitMD5Converges(t *testing.T) {
	const pages = 256
	const mem = int64(pages) * vm.PageSize
	arrivals := make(chan core.DestResult, 1) // one migration in flight at a time
	hosts := []*Host{newHost(t, "alpha"), newHost(t, "beta")}
	addrs := make([]string, len(hosts))
	for i, h := range hosts {
		h.SaveArrivals = true
		h.OnArrival = func(_ *vm.VM, res core.DestResult) { arrivals <- res }
		addrs[i] = listen(t, h)
	}
	hashed := func(h *Host, stage string) int64 {
		return int64(h.obs.hashBytes.With(h.name, stage).Value())
	}
	guest := newGuest(t, "vm0", pages)
	if err := guest.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	hosts[0].AddVM(guest)
	for leg := 0; leg < 4; leg++ {
		from, to := hosts[leg%2], hosts[(leg+1)%2]
		v, _ := from.VM("vm0")
		v.TouchRandomPages(8)
		want := v.Fingerprint64()
		m, err := from.MigrateTo(context.Background(), addrs[(leg+1)%2], "vm0", MigrateOptions{
			Recycle: true, KeepCheckpoint: true, Alg: checksum.MD5})
		if err != nil {
			t.Fatalf("leg %d: %v", leg, err)
		}
		res := <-arrivals
		landed, _ := to.VM("vm0")
		fingerprintEqual(t, want, landed)
		if res.Alg != checksum.MD5 {
			t.Errorf("leg %d ran under %v", leg, res.Alg)
		}
		if leg > 0 && (m.PagesFull > 8 || res.Metrics.PagesReusedInPlace < pages-8) {
			t.Errorf("leg %d: %d full pages, %d reused in place; a return should recycle all but the 8 touched",
				leg, m.PagesFull, res.Metrics.PagesReusedInPlace)
		}
		// One save per host per leg: the source's departure image, the
		// destination's arrival image.
		for _, h := range []*Host{from, to} {
			if got, want := hashed(h, "save_keys"), int64(leg+1)*mem; got != want {
				t.Errorf("leg %d: %s rehashed %d bytes in saves, want %d", leg, h.name, got, want)
			}
		}
	}
	// Legs 1..3 restored a checkpoint at their destination: beta once,
	// alpha twice.
	for i, wantRestores := range []int64{2, 1} {
		if got := hashed(hosts[i], "restore"); got != wantRestores*mem {
			t.Errorf("%s rescanned %d bytes in restores, want %d", hosts[i].name, got, wantRestores*mem)
		}
	}
}
