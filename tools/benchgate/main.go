// Command benchgate fails CI when the hash-once save path loses its edge
// over the rehashing one, or when a gated series regresses against a
// previously committed recording. It reads BENCH_migration.json (the
// `go test -json` stream `make bench` records), extracts the MB/s and
// B/op figures of every benchmark series, and enforces:
//
//   - hash-once floor: BenchmarkSaveWarm/withsums runs at least
//     -warm-ratio times BenchmarkSaveWarm/rehash — the acceptance bar of
//     the precomputed-sum ingest path (skipped when the recording lacks
//     the series);
//   - with -baseline (typically the recording at HEAD): every gated
//     series — BenchmarkFirstRound, BenchmarkTrackIncoming and both
//     SaveWarm arms — stays within -min-ratio of its own previous
//     throughput, and its B/op does not grow more than -alloc-slack
//     beyond it. Series absent from either recording are skipped (the
//     benchmark matrix may legitimately change).
//
// The gates are deliberately floors, not speedup targets: sync.Pool
// refills after a mid-loop GC move B/op by a few hundred KB between runs.
// The default tolerances (-min-ratio 0.85, -alloc-slack 1 MiB ≈ one pooled
// buffer refill) ride out that noise while still catching the real
// regressions, which were 3x slowdowns and multi-MB/op growth. The
// deterministic per-migration allocation ceiling lives in internal/core's
// alloc tests, which force GC and are noise-free.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of a `go test -json` event benchgate consumes.
type testEvent struct {
	Action string
	Output string
}

// series holds one benchmark's recorded figures. bop is 0 when the
// recording lacks -benchmem columns.
type series struct {
	mbps float64
	bop  float64
}

var (
	// resultLine matches one reassembled benchmark result line; the name
	// keeps its GOMAXPROCS suffix (stripped separately) and only series
	// reporting MB/s are kept.
	resultLine  = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+.*?(\d+(?:\.\d+)?) MB/s(?:\s+(\d+) B/op)?`)
	procsSuffix = regexp.MustCompile(`-\d+$`)
)

// gatedNames selects the series the baseline gate covers, by exact name:
// BenchmarkFirstRoundTCP (loopback throughput varies more across kernels
// than the in-process pipe) stays recorded but ungated.
var gatedNames = map[string]bool{
	"BenchmarkFirstRound":        true,
	"BenchmarkTrackIncoming":     true,
	"BenchmarkSaveWarm/rehash":   true,
	"BenchmarkSaveWarm/withsums": true,
}

func main() {
	file := flag.String("file", "BENCH_migration.json", "go test -json benchmark recording to gate on")
	baseline := flag.String("baseline", "", "previous recording to gate against (empty or missing file = skip)")
	minRatio := flag.Float64("min-ratio", 0.85, "minimum throughput of every gated series relative to the baseline")
	allocSlack := flag.Float64("alloc-slack", 1<<20, "maximum B/op growth of any gated series over the baseline, in bytes")
	warmRatio := flag.Float64("warm-ratio", 1.5, "minimum BenchmarkSaveWarm/withsums throughput relative to BenchmarkSaveWarm/rehash")
	flag.Parse()

	speeds, err := parseFile(*file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	if err := gateSaveWarm(speeds, *warmRatio); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	if *baseline != "" {
		if _, err := os.Stat(*baseline); err != nil {
			fmt.Printf("benchgate: no baseline at %s, skipping regression gate\n", *baseline)
			return
		}
		prev, err := parseFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: baseline: %v\n", err)
			os.Exit(1)
		}
		if err := gateBaseline(speeds, prev, *minRatio, *allocSlack); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
	}
}

// parseFile extracts the MB/s and B/op per benchmark series from a go test
// -json stream. A single benchmark result line is split across several
// output events (the name flushes before the timing columns), so the
// events are reassembled into plain text before matching; when a series
// was recorded more than once the last run wins.
func parseFile(path string) (map[string]series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate stray non-JSON lines
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	speeds := make(map[string]series)
	for _, line := range strings.Split(text.String(), "\n") {
		m := resultLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := procsSuffix.ReplaceAllString(m[1], "")
		s, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		var bop float64
		if m[3] != "" {
			bop, _ = strconv.ParseFloat(m[3], 64)
		}
		speeds[name] = series{mbps: s, bop: bop}
	}
	return speeds, nil
}

// gateSaveWarm enforces the hash-once acceptance bar: the precomputed-sum
// save must beat the rehashing save by warmRatio. Skipped when the
// recording predates the benchmark.
func gateSaveWarm(speeds map[string]series, warmRatio float64) error {
	rehash, okR := speeds["BenchmarkSaveWarm/rehash"]
	withsums, okW := speeds["BenchmarkSaveWarm/withsums"]
	if !okR && !okW {
		return nil
	}
	if !okR || !okW || rehash.mbps <= 0 {
		return fmt.Errorf("recording has only one BenchmarkSaveWarm arm; run `make bench`")
	}
	ratio := withsums.mbps / rehash.mbps
	fmt.Printf("benchgate: SaveWarm     %8.2f -> %8.2f MB/s  %.2fx of rehash (floor %.2fx)\n",
		rehash.mbps, withsums.mbps, ratio, warmRatio)
	if ratio < warmRatio {
		return fmt.Errorf("SaveWarm/withsums runs at %.2fx of rehash (floor %.2fx): the precomputed-sum ingest lost its edge", ratio, warmRatio)
	}
	return nil
}

// gateBaseline compares each gated series against its own figure in a
// previous recording: throughput must stay within minRatio of the old
// number, and B/op must not grow more than allocSlack beyond it. Series
// absent from either recording are skipped (the benchmark matrix may
// legitimately change).
func gateBaseline(speeds, prev map[string]series, minRatio, allocSlack float64) error {
	names := make([]string, 0, len(speeds))
	for name := range speeds {
		if _, ok := prev[name]; ok && gatedNames[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var failures []string
	for _, name := range names {
		cur, old := speeds[name], prev[name]
		if old.mbps > 0 {
			ratio := cur.mbps / old.mbps
			fmt.Printf("benchgate: baseline %-36s %8.2f -> %8.2f MB/s  %.2fx\n",
				name, old.mbps, cur.mbps, ratio)
			if ratio < minRatio {
				failures = append(failures,
					fmt.Sprintf("%s throughput fell to %.2fx of the baseline (floor %.2fx)", name, ratio, minRatio))
			}
		}
		if old.bop > 0 && cur.bop > 0 {
			growth := cur.bop - old.bop
			if growth > allocSlack {
				failures = append(failures,
					fmt.Sprintf("%s B/op grew %.0f beyond the baseline (slack %.0f)", name, growth, allocSlack))
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("regression against the baseline recording:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
