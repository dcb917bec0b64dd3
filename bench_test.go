// One benchmark per table/figure of the paper's evaluation, plus
// whole-protocol benchmarks. Each figure bench regenerates the exact series
// the corresponding figure plots (via internal/experiments) and reports
// domain-level metrics with b.ReportMetric, so `go test -bench=.` doubles
// as the reproduction harness. Run a single figure with, e.g.:
//
//	go test -bench=BenchmarkFigure6 -benchtime=1x
package vecycle_test

import (
	"context"
	"net"
	"sync"
	"testing"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/core"
	"vecycle/internal/disk"
	"vecycle/internal/experiments"
	"vecycle/internal/fingerprint"
	"vecycle/internal/methods"
	"vecycle/internal/migsim"
	"vecycle/internal/vm"
)

// benchOpts keeps the quadratic pair sweeps affordable under -bench=.
var benchOpts = experiments.Options{Stride: 8}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(name, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

// BenchmarkTable1 regenerates the traced-system inventory.
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure1 regenerates the six-panel snapshot-similarity study
// (similarity vs time delta, 0–24 h, min/avg/max).
func BenchmarkFigure1(b *testing.B) { runExperiment(b, "figure1") }

// BenchmarkFigure2 regenerates Server C's full-week similarity decay.
func BenchmarkFigure2(b *testing.B) { runExperiment(b, "figure2") }

// BenchmarkFigure4 regenerates the duplicate-page and zero-page series.
func BenchmarkFigure4(b *testing.B) { runExperiment(b, "figure4") }

// BenchmarkFigure5 regenerates the traffic-reduction method comparison
// (bars for Server A/B, reduction CDFs for servers and laptops) and
// reports the headline means.
func BenchmarkFigure5(b *testing.B) {
	runExperiment(b, "figure5")
}

// BenchmarkFigure6 regenerates the best-case (idle guest) sweep over 1–6
// GiB on LAN and WAN and reports the 1 GiB LAN speedup.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		_ = tables
	}
	// Report the headline ratio once, from a direct simulation.
	g, err := migsim.NewGuest("idle", 1<<30, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := g.FillRandom(0.95); err != nil {
		b.Fatal(err)
	}
	cp := g.Checkpoint()
	base, err := migsim.Simulate(g, nil, migsim.LANCost(), migsim.Baseline)
	if err != nil {
		b.Fatal(err)
	}
	vc, err := migsim.Simulate(g, cp, migsim.LANCost(), migsim.VeCycle)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(base.Time)/float64(vc.Time), "speedup-1GiB-LAN")
	b.ReportMetric(100*(1-float64(vc.SourceSendBytes)/float64(base.SourceSendBytes)), "traffic-reduction-%")
}

// BenchmarkFigure7 regenerates the varying-update-rate sweep (25/50/75/100%
// of a 90% ramdisk in a 4 GiB guest).
func BenchmarkFigure7(b *testing.B) { runExperiment(b, "figure7") }

// BenchmarkFigure8 regenerates the VDI study and reports the aggregate
// traffic fractions the paper quotes (dedup ≈ 0.86, VeCycle ≈ 0.25).
func BenchmarkFigure8(b *testing.B) {
	var res *experiments.Figure8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Figure8()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.DedupFraction, "dedup-fraction")
	b.ReportMetric(res.VeCycleFraction, "vecycle-fraction")
	b.ReportMetric(res.DirtyDedupFraction, "dirty+dedup-fraction")
}

// BenchmarkMigrationProtocol runs the real engine end to end over an
// in-memory pipe: a 32 MiB guest, 5% churned since the checkpoint.
func BenchmarkMigrationProtocol(b *testing.B) {
	for _, mode := range []struct {
		name    string
		recycle bool
	}{
		{"baseline", false},
		{"vecycle", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			dir := b.TempDir()
			store, err := checkpoint.NewStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			guest, err := vm.New(vm.Config{Name: "bench", MemBytes: 32 << 20, Seed: 1})
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
					_, serr = core.MigrateSource(context.Background(), ca, guest, core.SourceOptions{Recycle: mode.recycle})
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
		})
	}
}

// BenchmarkCheckpointRestore measures the destination's setup phase: the
// sequential image read that builds the checksum index (§3.3).
func BenchmarkCheckpointRestore(b *testing.B) {
	dir := b.TempDir()
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	guest, err := vm.New(vm.Config{Name: "bench", MemBytes: 32 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := guest.FillRandom(0.95); err != nil {
		b.Fatal(err)
	}
	if err := store.Save(guest); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(guest.MemBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := store.Restore("bench", checksum.MD5, nil)
		if err != nil {
			b.Fatal(err)
		}
		cp.Close()
	}
}

// BenchmarkMethodsAnalyze measures the per-pair cost of the Figure 5
// traffic analysis at the model scale used throughout.
func BenchmarkMethodsAnalyze(b *testing.B) {
	old := syntheticFingerprint(16384, 0)
	cur := syntheticFingerprint(16384, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := methods.Analyze(old, cur)
		if bd.TotalPages == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// syntheticFingerprint builds a model-scale fingerprint whose last `churn`
// frames carry fresh content relative to offset 0.
func syntheticFingerprint(pages, churn int) *fingerprint.Fingerprint {
	f := &fingerprint.Fingerprint{Hashes: make([]fingerprint.PageHash, pages)}
	for i := range f.Hashes {
		f.Hashes[i] = fingerprint.PageHash(i)
	}
	for i := 0; i < churn && i < pages; i++ {
		f.Hashes[pages-1-i] = fingerprint.PageHash(1_000_000 + churn + i)
	}
	return f
}

// BenchmarkDiskMigration moves an 8 MiB virtual disk (journal churn only)
// through the engine with checkpoint recycling.
func BenchmarkDiskMigration(b *testing.B) {
	store, err := checkpoint.NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	dev, err := disk.New("bench", 8<<20, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := dev.MkFS(0.8, 2); err != nil {
		b.Fatal(err)
	}
	if err := store.Save(dev.Backing()); err != nil {
		b.Fatal(err)
	}
	if err := dev.AppendLog(100, disk.BlockSize, 3); err != nil {
		b.Fatal(err)
	}

	b.SetBytes(dev.SizeBytes())
	b.ResetTimer()
	var last core.Metrics
	for i := 0; i < b.N; i++ {
		dstBacking, err := vm.New(vm.Config{Name: "bench#disk", MemBytes: dev.SizeBytes(), Seed: 4})
		if err != nil {
			b.Fatal(err)
		}
		ca, cb := net.Pipe()
		var wg sync.WaitGroup
		var serr, derr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			last, serr = core.MigrateSource(context.Background(), ca, dev.Backing(), core.SourceOptions{Recycle: true})
		}()
		go func() {
			defer wg.Done()
			_, derr = core.MigrateDest(context.Background(), cb, dstBacking, core.DestOptions{Store: store})
		}()
		wg.Wait()
		ca.Close()
		cb.Close()
		if serr != nil || derr != nil {
			b.Fatalf("source=%v dest=%v", serr, derr)
		}
	}
	b.ReportMetric(float64(last.BytesSent), "bytes-sent")
}
