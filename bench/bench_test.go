package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"vecycle/internal/vm"
)

// smoke is every workload shrunk to a 4 MiB guest and two timed legs.
func smoke(t *testing.T, traced bool) config {
	return config{seed: 7, legs: 2, guestMiB: 4, traced: traced, workdir: t.TempDir()}
}

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestManifestMatchesCatalogue holds BENCHMARK.json to the code: the same
// workloads, and every metric by the same name, unit, direction and bound.
func TestManifestMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(m.Command, want) {
		t.Errorf("command = %v, want %v", m.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(m.Paths, want) {
		t.Errorf("paths = %v, want %v", m.Paths, want)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the code", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest has %q (%q), the code %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nmanifest %+v\ncode     %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nmanifest %+v\ncode     %+v", m.PerLayer, perLayer)
	}
}

// TestSmoke runs both passes of every workload at small scale: nothing
// fails, every catalogued metric is emitted under its unit, the wire counts
// agree with the engine's, and one seed gives the same bytes and counts twice.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // the WAN workload's legs are mostly sleep
			ctx := context.Background()
			first, err := run(ctx, w, smoke(t, false))
			if err != nil {
				t.Fatal(err)
			}
			traced, err := run(ctx, w, smoke(t, true))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{first, traced} {
				if r.failed != 0 || r.attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.failures)
				}
			}
			if len(first.legs) != 2 || len(traced.legs) != 2 {
				t.Fatalf("timed legs: %d and %d, want 2 and 2", len(first.legs), len(traced.legs))
			}
			// The two passes ran the same seed, so their legs move the same bytes.
			for i, a := range first.legs {
				b := traced.legs[i]
				if a.sent != a.src.BytesSent || a.received != a.src.BytesReceived {
					t.Errorf("leg %d: wire counted %d+%d bytes, the engine %d+%d", i, a.sent, a.received, a.src.BytesSent, a.src.BytesReceived)
				}
				if a.wireBytes() != b.wireBytes() || a.writes != b.writes || a.turns != b.turns {
					t.Errorf("leg %d: wire %d B/%d writes/%d turns, then %d/%d/%d with the same seed",
						i, a.wireBytes(), a.writes, a.turns, b.wireBytes(), b.writes, b.turns)
				}
				am, bm := a.src, b.src
				am.Duration, bm.Duration = 0, 0
				if am != bm {
					t.Errorf("leg %d: source counts differ between two runs of one seed:\n%+v\n%+v", i, am, bm)
				}
			}

			vals := first.endToEndValues()
			for _, d := range endToEnd {
				if v, ok := vals[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v), want a positive value", d.Name, v, ok)
				}
			}
			layers, err := traced.perLayerValues()
			if err != nil {
				t.Error(err)
			}
			if len(layers) != len(perLayer) {
				t.Errorf("%d per-layer values for %d catalogued metrics", len(layers), len(perLayer))
			}
			for _, d := range perLayer {
				if _, ok := layers[d.Name]; !ok {
					t.Errorf("per-layer metric %s was not emitted", d.Name)
				}
			}
			if want := float64(traced.churnPages); w.pingPong && layers["core.pages_full"] != want {
				t.Errorf("core.pages_full = %v, want the %v rewritten pages", layers["core.pages_full"], want)
			}

			// The driver's line: exactly its four keys, each metric with its unit.
			var buf bytes.Buffer
			if err := driverLine(&buf, first, endToEnd, vals, true); err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(&buf)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatal(err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(endToEnd) {
				t.Fatalf("driver line misses a key or a metric: %+v", line)
			}
			for _, d := range endToEnd {
				if m := line.Metrics[d.Name]; m.Value == nil || m.Unit != d.Unit {
					t.Errorf("driver line: %s = %+v, want a value in %s", d.Name, m, d.Unit)
				}
			}
		})
	}
}

// TestCorruptedArrivalFails flips one byte of the guest that arrives on the
// first timed leg: that leg, and only it, counts as failed.
func TestCorruptedArrivalFails(t *testing.T) {
	cfg := smoke(t, false)
	cfg.tamper = func(leg int, v *vm.VM) {
		if leg != 0 {
			return
		}
		page := make([]byte, vm.PageSize)
		v.ReadPage(3, page)
		page[100] ^= 1
		v.InstallPage(3, page)
	}
	r, err := run(context.Background(), workloads[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted != 4 || r.failed != 1 {
		t.Fatalf("attempted %d, failed %d (%v); want 4 and 1", r.attempted, r.failed, r.failures)
	}
	if len(r.legs) != 1 {
		t.Errorf("%d legs kept for the medians, want the 1 that passed", len(r.legs))
	}
}
