package sched

import (
	"context"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/core"
	"vecycle/internal/vm"
)

// TestDigestTableExactCounts pins what the resident digest table promises,
// through two hosts and in bytes: a returning source hashes exactly the pages
// the guest rewrote since it arrived and the destination's probes hash
// nothing; a different algorithm hashes everything and trusts no stale
// entry; a restore that had to fall back to the rescan, and one from a
// salvage image, seed the table as well as a warm one. The registry's
// encode/probe series must tell the same story as the engine's metrics.
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
	// rewrite gives exactly k distinct pages of the guest on host fresh content.
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
	// hop migrates vm0 from→to and checks what each side hashed: the engine's
	// metrics and the registry series agree (both describe the successful
	// attempt), the source's encode pass digested wantEncode bytes and the
	// probes none.
	hop := func(from, to string, opts MigrateOptions, wantEncode int64) (core.Metrics, core.DestResult) {
		t.Helper()
		opts.Recycle, opts.KeepCheckpoint = true, true
		leaving, ok := hosts[from].VM("vm0")
		if !ok {
			t.Fatalf("vm0 is not on %s", from)
		}
		want := leaving.Fingerprint64()
		enc0, probe0 := stage(from, "encode"), stage(to, "probe")
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
		return m, res
	}

	// First visit: a guest that never migrated has an empty table.
	m, _ := hop("alpha", "beta", MigrateOptions{}, mem)
	if m.HashAvoidedBytes != 0 {
		t.Errorf("first visit took %d bytes of digests from an empty table", m.HashAvoidedBytes)
	}

	// Returning legs: only the rewritten pages are hashed, at either width.
	for i, leg := range [][2]string{{"beta", "alpha"}, {"alpha", "beta"}, {"beta", "alpha"}} {
		rewrite(leg[0], rewritten)
		hosts[leg[1]].Workers = 2 * (i % 2)
		m, res := hop(leg[0], leg[1], MigrateOptions{Workers: 2 * (i % 2)}, rewritten*vm.PageSize)
		if m.PagesFull != rewritten || res.Metrics.PagesReusedInPlace != pages-rewritten {
			t.Errorf("leg %d: %d full pages and %d reused in place, want %d and %d",
				i, m.PagesFull, res.Metrics.PagesReusedInPlace, rewritten, pages-rewritten)
		}
		if got, want := m.HashAvoidedBytes, mem-rewritten*vm.PageSize; got != want {
			t.Errorf("leg %d: source took %d bytes of digests from the table, want %d", i, got, want)
		}
	}
	hosts["alpha"].Workers, hosts["beta"].Workers = 0, 0

	// A sidecar the destination cannot trust: the restore falls back to the
	// rescan, which must seed the table just the same.
	rewrite("alpha", rewritten)
	sidecar := checkpoint.SidecarPath(hosts["beta"].Store().Dir() + "/vm0.pmf")
	if err := os.WriteFile(sidecar, []byte("not a sidecar"), 0o644); err != nil {
		t.Fatal(err)
	}
	fallbacks := hosts["beta"].obs.sidecar.With("beta", "fallback").Value()
	_, res := hop("alpha", "beta", MigrateOptions{}, rewritten*vm.PageSize)
	if got := hosts["beta"].obs.sidecar.With("beta", "fallback").Value() - fallbacks; got != 1 {
		t.Errorf("destination counted %v sidecar fallbacks, want 1", got)
	}
	if res.Metrics.PagesReusedInPlace != pages-rewritten {
		t.Errorf("after the rescan %d pages were reused in place, want %d", res.Metrics.PagesReusedInPlace, pages-rewritten)
	}

	// Another algorithm: every table entry is the wrong kind of digest, so
	// the source hashes the whole guest and nothing stale crosses over. The
	// destination's MD5 sidecar does not serve SHA-256 either; its rescan
	// seeds the arriving guest's table under the new algorithm.
	_, res = hop("beta", "alpha", MigrateOptions{Alg: checksum.SHA256}, mem)
	if res.Alg != checksum.SHA256 || res.Metrics.PagesReusedInPlace != pages {
		t.Errorf("algorithm switch: alg %v, %d pages reused in place, want sha256 and %d",
			res.Alg, res.Metrics.PagesReusedInPlace, pages)
	}
	rewrite("alpha", rewritten)
	hop("alpha", "beta", MigrateOptions{Alg: checksum.SHA256}, rewritten*vm.PageSize)

	// A cut mid-round leaves a salvage image at the destination; the retry
	// bootstraps from it. The retry hashes the rewritten pages again (the
	// source records nothing back), and the partial restore seeds the table
	// as well as a complete one.
	rewrite("beta", rewritten)
	var handled atomic.Int64 // alpha's failed incoming handlers: the dialer's barrier
	hosts["alpha"].OnError = func(error) { handled.Add(1) }
	cd := &chaosDialer{t: t, schedule: []int64{100_000}, handled: &handled}
	hosts["beta"].DialFunc = cd.dial
	_, res = hop("beta", "alpha", MigrateOptions{Alg: checksum.SHA256,
		Retry: RetryPolicy{Attempts: 2, Backoff: time.Millisecond}}, rewritten*vm.PageSize)
	if cd.dials.Load() != 2 || !res.ResumedFromPartial {
		t.Errorf("%d dials, resumed from partial: %v; want a cut attempt and a retry that resumes",
			cd.dials.Load(), res.ResumedFromPartial)
	}
}
