// Ablation benchmarks for the design choices DESIGN.md calls out: checksum
// algorithm (§3.4), bulk vs per-page hash exchange (§3.2), checkpoint disk
// speed (§4.4 "SSD made no difference"), and pre-copy round tuning.
package vecycle_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/core"
	"vecycle/internal/migsim"
	"vecycle/internal/vm"
)

// BenchmarkAblationChecksum sweeps the checksum rate of the simulated
// pipeline (the §3.4 lower bound on VeCycle's migration time) and also
// runs the real engine under MD5 and SHA-256 to show the algorithms are
// interchangeable.
func BenchmarkAblationChecksum(b *testing.B) {
	// Simulated: 4 GiB idle guest, LAN; the migration time tracks the
	// checksum rate once the wire is cheap.
	for _, rate := range []float64{120, 350, 480, 1200} { // MiB/s
		b.Run(fmt.Sprintf("sim-rate=%.0fMiBps", rate), func(b *testing.B) {
			g, err := migsim.NewGuest("idle", 4<<30, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := g.FillRandom(0.95); err != nil {
				b.Fatal(err)
			}
			cp := g.Checkpoint()
			cost := migsim.LANCost()
			cost.ChecksumBytesPerSec = rate * (1 << 20)
			var res migsim.Result
			for i := 0; i < b.N; i++ {
				res, err = migsim.Simulate(g, cp, cost, migsim.VeCycle)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Time.Seconds(), "migration-s")
		})
	}
	// Real engine: identical protocol under both strong algorithms.
	for _, alg := range []checksum.Algorithm{checksum.MD5, checksum.SHA256} {
		b.Run("engine-"+alg.String(), func(b *testing.B) {
			benchEngineOnce(b, core.SourceOptions{Recycle: true, Alg: alg})
		})
	}
}

// BenchmarkAblationAnnounce compares the bulk hash announcement against
// the per-page query alternative the paper declined to evaluate (§3.2):
// "we expect the high frequency exchange of small messages to slow down
// the migration performance".
func BenchmarkAblationAnnounce(b *testing.B) {
	const pages = 1 << 20 // 4 GiB guest
	for _, env := range []struct {
		name string
		cost migsim.CostModel
	}{
		{"LAN", migsim.LANCost()},
		{"WAN", migsim.WANCost()},
	} {
		b.Run(env.name, func(b *testing.B) {
			var bulk, perPage time.Duration
			for i := 0; i < b.N; i++ {
				// Bulk: one announcement of pages checksums.
				announceBytes := int64(core.AnnounceMsgBytes(pages))
				bulk = time.Duration(float64(announceBytes) / env.cost.EffectiveBandwidth() * float64(time.Second))
				// Per-page, stop-and-wait: each page costs one query/reply
				// round trip plus the tiny payloads.
				queryBytes := int64(pages) * (migsim.PageSumMsgBytes + 2)
				perPage = time.Duration(pages)*env.cost.Link.RTT() +
					time.Duration(float64(queryBytes)/env.cost.EffectiveBandwidth()*float64(time.Second))
			}
			b.ReportMetric(bulk.Seconds(), "bulk-s")
			b.ReportMetric(perPage.Seconds(), "per-page-s")
			b.ReportMetric(perPage.Seconds()/bulk.Seconds(), "slowdown-x")
		})
	}
}

// BenchmarkAblationDiskRate sweeps the checkpoint read rate on a
// moved-content-heavy guest (every reused page must be repaired from
// disk). The paper found HDD vs SSD made no difference; this shows why —
// and where slow media would start to bite.
func BenchmarkAblationDiskRate(b *testing.B) {
	for _, rate := range []float64{25, 130, 500} { // MiB/s: slow HDD, paper HDD, SSD
		b.Run(fmt.Sprintf("disk=%.0fMiBps", rate), func(b *testing.B) {
			g, err := migsim.NewGuest("mover", 4<<30, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := g.FillRandom(0.95); err != nil {
				b.Fatal(err)
			}
			cp := g.Checkpoint()
			// Half the frames relocated: content intact, frames mismatched.
			if err := g.ShuffleFrames(0.5); err != nil {
				b.Fatal(err)
			}
			cost := migsim.LANCost()
			cost.DiskReadBytesPerSec = rate * (1 << 20)
			var res migsim.Result
			for i := 0; i < b.N; i++ {
				res, err = migsim.Simulate(g, cp, cost, migsim.VeCycle)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Time.Seconds(), "migration-s")
			b.ReportMetric(res.DiskTime.Seconds(), "disk-stage-s")
		})
	}
}

// BenchmarkAblationRounds tunes the pre-copy loop (round cap and stop
// threshold) under a guest that keeps writing throughout the migration.
func BenchmarkAblationRounds(b *testing.B) {
	cases := []struct {
		name      string
		maxRounds int
		threshold int
	}{
		{"rounds=2,thr=512", 2, 512},
		{"rounds=4,thr=64", 4, 64},
		{"rounds=8,thr=16", 8, 16},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			benchEngineOnce(b, core.SourceOptions{
				Recycle:       true,
				MaxRounds:     tc.maxRounds,
				StopThreshold: tc.threshold,
			})
		})
	}
}

// benchEngineOnce runs the real engine per iteration: 16 MiB guest, 5%
// churn since checkpoint, busy writer during the migration.
func benchEngineOnce(b *testing.B, sopts core.SourceOptions) {
	b.Helper()
	store := newBenchStore(b)
	guest, err := vm.New(vm.Config{Name: "bench", MemBytes: 16 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := guest.FillRandom(0.95); err != nil {
		b.Fatal(err)
	}
	if err := store.Save(guest); err != nil {
		b.Fatal(err)
	}
	guest.TouchRandomPages(guest.NumPages() / 20)

	b.SetBytes(guest.MemBytes())
	b.ResetTimer()
	var last core.Metrics
	for i := 0; i < b.N; i++ {
		dst, err := vm.New(vm.Config{Name: "bench", MemBytes: guest.MemBytes(), Seed: 2})
		if err != nil {
			b.Fatal(err)
		}

		stop := make(chan struct{})
		var writer sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			for {
				select {
				case <-stop:
					return
				default:
					guest.TouchRandomPages(1)
				}
			}
		}()
		opts := sopts
		opts.Pause = func() { close(stop); writer.Wait() }

		ca, cb := net.Pipe()
		var wg sync.WaitGroup
		var serr, derr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			last, serr = core.MigrateSource(context.Background(), ca, guest, opts)
		}()
		go func() {
			defer wg.Done()
			_, derr = core.MigrateDest(context.Background(), cb, dst, core.DestOptions{Store: store})
		}()
		wg.Wait()
		ca.Close()
		cb.Close()
		if serr != nil || derr != nil {
			b.Fatalf("source=%v dest=%v", serr, derr)
		}
	}
	b.ReportMetric(float64(last.Rounds), "rounds")
	b.ReportMetric(float64(last.BytesSent), "bytes-sent")
}

// newBenchStore creates a temp checkpoint store for a benchmark.
func newBenchStore(b *testing.B) *checkpoint.Store {
	b.Helper()
	store, err := checkpoint.NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	return store
}

// BenchmarkAblationDelta compares the three encodings of a changed page —
// raw, deflate, XBZRLE delta against the checkpoint — on a workload where
// each dirty page changed in only a 64-byte stretch.
func BenchmarkAblationDelta(b *testing.B) {
	type variant struct {
		name string
		opts func(base core.PageProvider) core.SourceOptions
	}
	variants := []variant{
		{"raw", func(core.PageProvider) core.SourceOptions {
			return core.SourceOptions{Recycle: true}
		}},
		{"compress", func(core.PageProvider) core.SourceOptions {
			return core.SourceOptions{Recycle: true, Compress: true}
		}},
		{"delta", func(base core.PageProvider) core.SourceOptions {
			return core.SourceOptions{Recycle: true, DeltaBase: base}
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			destStore := newBenchStore(b)
			srcStore := newBenchStore(b)
			guest, err := vm.New(vm.Config{Name: "bench", MemBytes: 16 << 20, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if err := guest.FillRandom(0.95); err != nil {
				b.Fatal(err)
			}
			if err := destStore.Save(guest); err != nil {
				b.Fatal(err)
			}
			if err := srcStore.Save(guest); err != nil {
				b.Fatal(err)
			}
			base, err := srcStore.Restore("bench", checksum.MD5, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer base.Close()
			// 10% of pages change, 64 bytes each.
			buf := make([]byte, vm.PageSize)
			for p := 0; p < guest.NumPages()/10; p++ {
				guest.ReadPage(p, buf)
				for i := 0; i < 64; i++ {
					buf[i] ^= 0x3C
				}
				guest.WritePage(p, buf)
			}

			b.SetBytes(guest.MemBytes())
			b.ResetTimer()
			var last core.Metrics
			for i := 0; i < b.N; i++ {
				dst, err := vm.New(vm.Config{Name: "bench", MemBytes: guest.MemBytes(), Seed: 2})
				if err != nil {
					b.Fatal(err)
				}
				ca, cb := net.Pipe()
				var wg sync.WaitGroup
				var serr, derr error
				wg.Add(2)
				go func() {
					defer wg.Done()
					last, serr = core.MigrateSource(context.Background(), ca, guest, v.opts(base))
				}()
				go func() {
					defer wg.Done()
					_, derr = core.MigrateDest(context.Background(), cb, dst, core.DestOptions{Store: destStore})
				}()
				wg.Wait()
				ca.Close()
				cb.Close()
				if serr != nil || derr != nil {
					b.Fatalf("source=%v dest=%v", serr, derr)
				}
			}
			b.ReportMetric(float64(last.BytesSent), "bytes-sent")
			b.ReportMetric(float64(last.PagesDelta), "pages-delta")
		})
	}
}
