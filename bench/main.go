// Command bench is the recycle-cycle benchmark: the wall-clock, bytes, CPU
// and memory of a VM returning to a host that kept its checkpoint, measured
// end to end through two in-process sched.Hosts with real listeners, and a
// per-layer budget from a separate traced pass. README.md in this directory
// describes the workloads, the metrics and the noise controls;
// BENCHMARK.json at the repository root is the contract a driver runs it by.
//
//	go run ./bench -workload NAME -seed N -seconds S -trace 0|1   one run; the last line is one JSON object
//	go run ./bench -seed N [-out FILE]                            all workloads, both passes
//	go run ./bench -spread -seed N                                all workloads twice; medians must agree within bounds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
)

// procs is the benchmark's fixed GOMAXPROCS, whatever the machine offers.
const procs = 2

func main() {
	if err := realMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func realMain(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload and end with the driver's JSON line (default: all, both passes)")
		seed    = fs.Int64("seed", 1, "seed of the guest content and churn")
		seconds = fs.Float64("seconds", 16, "measurement window per workload and pass")
		trace   = fs.Int("trace", 0, "with -workload: 1 runs the traced per-layer pass instead of the end-to-end one")
		out     = fs.String("out", "", "without -workload: also write the full report as JSON to this file")
		spread  = fs.Bool("spread", false, "run the end-to-end pass of every workload twice, in opposite orders, and compare")
		verbose = fs.Bool("v", false, "print one line per leg on standard error")
		workdir = fs.String("workdir", filepath.Join(".bench_build", "stores"), "directory the checkpoint stores are created under")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("bench: unexpected argument %q", fs.Arg(0))
	}
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	defer os.Remove(*workdir) // only when nothing else is in it
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace != 0, workdir: *workdir, verbose: *verbose}
	ctx := context.Background()

	e := environment(cfg)
	fmt.Printf("vecycle recycle-cycle benchmark: %s\n", e.Traffic)
	fmt.Printf("env go=%s nproc=%d GOMAXPROCS=%d store_fs=%s workdir=%s seed=%d seconds=%g\n",
		e.Go, e.NProc, e.GOMAXPROCS, e.StoreFS, e.Workdir, e.Seed, e.Seconds)

	switch {
	case *spread:
		return runSpread(ctx, cfg)
	case *name == "":
		return runAll(ctx, cfg, e, *out)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	return runOne(ctx, w, cfg)
}

// env records where the numbers come from.
type env struct {
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	StoreFS    string  `json:"store_fs"`
	Workdir    string  `json:"workdir"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traffic    string  `json:"traffic"`
}

func environment(cfg config) env {
	return env{
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		StoreFS: fsName(cfg.workdir), Workdir: cfg.workdir, Seed: cfg.seed, Seconds: cfg.seconds,
		Traffic: "all traffic crossed this host's TCP loopback, never a real link; lan and wan are user-space shapes (internal/netem) on the source's writes",
	}
}

// fsName names the filesystem the stores sit on, by its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch magic := uint32(st.Type); magic {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", magic)
	}
}

// runOne is driver mode: one workload, one pass, one JSON line last.
func runOne(ctx context.Context, w workload, cfg config) error {
	r, err := run(ctx, w, cfg)
	if err != nil {
		return err
	}
	verdict := r.verdict()
	defs, vals := endToEnd, r.endToEndValues()
	pass := "end-to-end"
	if cfg.traced {
		pass, defs = "traced", perLayer
		var layerErr error
		if vals, layerErr = r.perLayerValues(); verdict == nil {
			verdict = layerErr
		}
	}
	r.header(os.Stdout, pass)
	printMetrics(os.Stdout, defs, vals)
	if !cfg.traced {
		printMetrics(os.Stdout, informational, vals)
	}
	if err := driverLine(os.Stdout, r, defs, vals, verdict == nil); err != nil {
		return err
	}
	return verdict
}

// verdict is nil for a correct run: no operation failed, and a returning
// workload showed what it is there to show — a recycled return beats the
// first visit over the same link and moves little more than the rewritten
// share of the guest (under 10 % of it at 5 % churn).
func (r *result) verdict() error {
	if r.failed > 0 {
		return fmt.Errorf("bench: %s: %d of %d operations failed, the first at %s", r.w.name, r.failed, r.attempted, r.failures[0])
	}
	if !r.w.pingPong || len(r.legs) == 0 {
		return nil
	}
	v := r.endToEndValues()
	if v["return_time_s"] >= r.firstVisitS {
		return fmt.Errorf("bench: %s: a return took %.3f s, the first visit over the same link %.3f s", r.w.name, v["return_time_s"], r.firstVisitS)
	}
	if limit := (r.w.churnPct/100 + 0.05) * float64(r.memBytes); v["wire_bytes"] >= limit {
		return fmt.Errorf("bench: %s: a return moved %.0f bytes, the limit for %g %% churn is %.0f", r.w.name, v["wire_bytes"], r.w.churnPct, limit)
	}
	return nil
}

// driverResult is the driver's line as the full report and -spread read it
// back from a child process.
type driverResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// measure runs one workload and pass exactly as a driver would: in a process
// of its own, so that peak_rss_mib and the process's cold start mean the
// same in every mode. The child's output is passed through; its last line is
// the result. A child that exits non-zero still yields its line, with the
// error.
func measure(ctx context.Context, w workload, cfg config) (driverResult, error) {
	var res driverResult
	exe, err := os.Executable()
	if err != nil {
		return res, fmt.Errorf("bench: %w", err)
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace,
		"-workdir", cfg.workdir, "-v="+strconv.FormatBool(cfg.verbose))
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil && runErr == nil {
		runErr = fmt.Errorf("bench: %s: no result line: %w", w.name, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("bench: %s (trace %s): %w", w.name, trace, runErr)
	}
	return res, nil
}

// values strips the units off a result's metrics.
func (d driverResult) values() map[string]float64 {
	out := make(map[string]float64, len(d.Metrics))
	for name, m := range d.Metrics {
		out[name] = m.Value
	}
	return out
}

// report is the -out document.
type report struct {
	Env       env              `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name         string             `json:"name"`
	OpsAttempted int                `json:"ops_attempted"`
	OpsFailed    int                `json:"ops_failed"`
	EndToEnd     map[string]float64 `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer"`
}

// runAll measures every workload, end to end and then traced, and writes the
// report. It carries on past a failing pass and returns the first error.
func runAll(ctx context.Context, cfg config, e env, outPath string) error {
	rep := report{Env: e}
	var firstErr error
	for _, w := range workloads {
		wr := workloadReport{Name: w.name}
		for _, traced := range []bool{false, true} {
			cfg.traced = traced
			res, err := measure(ctx, w, cfg)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			wr.OpsAttempted += res.Attempted
			wr.OpsFailed += res.Failed
			if traced {
				wr.PerLayer = res.values()
			} else {
				wr.EndToEnd = res.values()
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
	}
	return firstErr
}

// runSpread is the steadiness check: the end-to-end pass of every workload
// twice, the second time in reverse order, each metric's two values side by
// side with their difference and the bound it must stay within.
func runSpread(ctx context.Context, cfg config) error {
	cfg.traced = false
	values := make([]map[string]map[string]float64, 2)
	for pass := range values {
		values[pass] = make(map[string]map[string]float64)
		for i := range workloads {
			w := workloads[i]
			if pass == 1 {
				w = workloads[len(workloads)-1-i]
			}
			res, err := measure(ctx, w, cfg)
			if err != nil {
				return err
			}
			values[pass][w.name] = res.values()
		}
	}
	over := 0
	fmt.Printf("%-22s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := values[0][w.name][d.Name], values[1][w.name][d.Name]
			diff := math.Abs(b-a) / a
			mark := ""
			if diff > d.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-22s %-14s %14.6f %14.6f %8.2f%% %6.0f%%%s\n", w.name, d.Name, a, b, diff*100, d.Bound*100, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("bench: %d metrics differ between the two passes by more than their bound", over)
	}
	return nil
}
