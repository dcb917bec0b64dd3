package sched

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"vecycle/internal/core"
	"vecycle/internal/obs"
	"vecycle/internal/vm"
)

// promLine matches one sample line of the Prometheus text exposition
// format: a metric name, an optional label set, and a value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// checkPrometheusFormat fails the test unless body parses as the text
// exposition format: every line is a # HELP, a # TYPE, or a sample.
func checkPrometheusFormat(t *testing.T, body string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty metrics body")
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
}

func httpGet(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header.Get("Content-Type")
}

// TestObservabilityEndToEnd runs a loopback migration between two hosts and
// scrapes both sides' ops endpoints: /metrics must be valid Prometheus text
// containing the expected series, /debug/migrations must return the
// completed migration's trace.
func TestObservabilityEndToEnd(t *testing.T) {
	src := newHost(t, "alpha")
	dst := newHost(t, "beta")
	addr := listen(t, dst)

	srcOps, err := src.ListenOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	dstOps, err := dst.ListenOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	v := newGuest(t, "vm0", 64)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	src.AddVM(v)

	arrived := make(chan struct{}, 1)
	dst.OnArrival = func(*vm.VM, core.DestResult) { arrived <- struct{}{} }

	if _, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{Recycle: true, KeepCheckpoint: true}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("destination never registered the VM")
	}

	// Source-side scrape.
	body, ctype := httpGet(t, "http://"+srcOps+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("metrics content type = %q", ctype)
	}
	checkPrometheusFormat(t, body)
	for _, want := range []string{
		`vecycle_migrations_total{host="alpha",role="source",outcome="success"} 1`,
		`vecycle_migrations_active{host="alpha",role="source"} 0`,
		`vecycle_migration_duration_seconds_count{host="alpha",role="source"} 1`,
		`vecycle_migration_downtime_seconds_count{host="alpha"} 1`,
		`vecycle_store_images{host="alpha"} 1`,
		`vecycle_host_vms{host="alpha"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("source /metrics missing %q", want)
		}
	}
	// A 64-page guest moved at least one round of bytes.
	if !strings.Contains(body, `vecycle_migration_round_bytes_count{host="alpha",role="source"}`) {
		t.Error("source /metrics missing the per-round byte counts")
	}

	// Destination-side scrape.
	body, _ = httpGet(t, "http://"+dstOps+"/metrics")
	checkPrometheusFormat(t, body)
	for _, want := range []string{
		`vecycle_migrations_total{host="beta",role="dest",outcome="success"} 1`,
		`vecycle_host_vms{host="beta"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("dest /metrics missing %q", want)
		}
	}

	// Trace of the completed migration, both sides.
	for _, tc := range []struct {
		ops, host, role string
	}{
		{srcOps, "alpha", "source"},
		{dstOps, "beta", "dest"},
	} {
		body, ctype := httpGet(t, "http://"+tc.ops+"/debug/migrations")
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("trace content type = %q", ctype)
		}
		var page struct {
			Active []obs.Migration `json:"active"`
			Recent []obs.Migration `json:"recent"`
		}
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatalf("%s /debug/migrations: %v", tc.host, err)
		}
		if len(page.Active) != 0 {
			t.Errorf("%s: %d migrations still active", tc.host, len(page.Active))
		}
		if len(page.Recent) != 1 {
			t.Fatalf("%s: %d recent migrations, want 1", tc.host, len(page.Recent))
		}
		m := page.Recent[0]
		if m.VM != "vm0" || m.Host != tc.host || m.Role != tc.role {
			t.Errorf("%s trace = vm %q host %q role %q", tc.host, m.VM, m.Host, m.Role)
		}
		if m.Err != "" {
			t.Errorf("%s trace err = %q", tc.host, m.Err)
		}
		if m.End.IsZero() || m.End.Before(m.Start) {
			t.Errorf("%s trace not finished: start %v end %v", tc.host, m.Start, m.End)
		}
		kinds := make(map[string]bool)
		for _, e := range m.Events {
			kinds[e.Kind] = true
		}
		for _, want := range []string{core.EventHello, core.EventRound, core.EventDone} {
			if !kinds[want] {
				t.Errorf("%s trace missing %q event (got %v)", tc.host, want, kinds)
			}
		}
	}

	// JSONL export round-trips line-by-line.
	body, _ = httpGet(t, "http://"+srcOps+"/debug/migrations.jsonl")
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 1 {
		t.Fatalf("jsonl lines = %d, want 1", len(lines))
	}
	var rt obs.Migration
	if err := json.Unmarshal([]byte(lines[0]), &rt); err != nil {
		t.Fatal(err)
	}
	if rt.VM != "vm0" {
		t.Errorf("jsonl vm = %q", rt.VM)
	}
}

// TestObservabilityFailedMigration checks the error path: a migration to a
// dead peer counts under outcome="error" and leaves a finished trace with
// the error recorded.
func TestObservabilityFailedMigration(t *testing.T) {
	src := newHost(t, "alpha")
	t.Cleanup(func() { src.Close() })
	v := newGuest(t, "vm0", 8)
	src.AddVM(v)

	// A listener that is immediately closed: connection refused.
	dst := newHost(t, "beta")
	addr := listen(t, dst)
	dst.Close()

	if _, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{Recycle: true}); err == nil {
		t.Fatal("migration to dead peer succeeded")
	}
	var sb strings.Builder
	if err := src.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `vecycle_migrations_total{host="alpha",role="source",outcome="error"} 1`) {
		t.Error("failed migration not counted under outcome=error")
	}
	recent := src.Traces().Recent()
	if len(recent) != 1 || recent[0].Err == "" {
		t.Fatalf("trace of failed migration = %+v", recent)
	}
}

// TestObservabilityRejectedArrival checks that a duplicate arrival is
// recorded on the destination under outcome="rejected".
func TestObservabilityRejectedArrival(t *testing.T) {
	src := newHost(t, "alpha")
	dst := newHost(t, "beta")
	addr := listen(t, dst)
	t.Cleanup(func() { src.Close() })

	// The destination already hosts vm0.
	dst.AddVM(newGuest(t, "vm0", 8))
	src.AddVM(newGuest(t, "vm0", 8))

	_, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{Recycle: true})
	if err == nil {
		t.Fatal("duplicate arrival accepted")
	}
	// The destination handler runs asynchronously; wait for its record.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sb strings.Builder
		if err := dst.Registry().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(sb.String(), `vecycle_migrations_total{host="beta",role="dest",outcome="rejected"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejection never counted; metrics:\n%s", sb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetSharedRegistry re-homes two hosts onto one registry and checks a
// single scrape carries both hosts' series, distinguished by the host label.
func TestFleetSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	traces := obs.NewTraceLog(0)
	src := newHost(t, "alpha")
	dst := newHost(t, "beta")
	src.UseObservability(reg, traces)
	dst.UseObservability(reg, traces)
	addr := listen(t, dst)
	t.Cleanup(func() { src.Close() })

	v := newGuest(t, "vm0", 16)
	src.AddVM(v)
	if _, err := src.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{Recycle: true}); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `vecycle_migrations_total{host="alpha",role="source",outcome="success"} 1`) {
		t.Error("shared registry missing alpha series")
	}
	// The dest handler is asynchronous; poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sb.Reset()
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(sb.String(), `vecycle_migrations_total{host="beta",role="dest",outcome="success"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shared registry missing beta series")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Both hosts' traces land in the shared log.
	hosts := make(map[string]bool)
	for _, m := range traces.Recent() {
		hosts[m.Host] = true
	}
	if !hosts["alpha"] || !hosts["beta"] {
		t.Errorf("shared trace log hosts = %v", hosts)
	}
}

// metricWord matches metric-name-shaped words in the documentation.
var metricWord = regexp.MustCompile(`vecycle_[a-z0-9_]+`)

// TestObservabilityDocsCoverage diffs the registered metric families
// against docs/OBSERVABILITY.md in both directions: every registered family
// must be documented, and every vecycle_* name the doc mentions must be a
// registered family (possibly with a _bucket/_sum/_count suffix).
func TestObservabilityDocsCoverage(t *testing.T) {
	h := newHost(t, "alpha")
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	names := h.Registry().Names()
	if len(names) == 0 {
		t.Fatal("no registered metric families")
	}
	registered := make(map[string]bool, len(names))
	for _, name := range names {
		registered[name] = true
		if !strings.Contains(string(doc), name) {
			t.Errorf("docs/OBSERVABILITY.md does not document %s", name)
		}
	}
	for _, word := range metricWord.FindAllString(string(doc), -1) {
		base := word
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(base, suffix); trimmed != base && registered[trimmed] {
				base = trimmed
				break
			}
		}
		if !registered[base] {
			t.Errorf("docs/OBSERVABILITY.md mentions %s, which is not a registered family", word)
		}
	}
}

// TestListenOpsRebind replaces an earlier ops listener and closes with the
// host.
func TestListenOpsRebind(t *testing.T) {
	h := newHost(t, "alpha")
	first, err := h.ListenOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	second, err := h.ListenOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatalf("rebind returned same address %s", first)
	}
	if _, err := http.Get("http://" + first + "/metrics"); err == nil {
		t.Error("first ops listener still serving after rebind")
	}
	body, _ := httpGet(t, fmt.Sprintf("http://%s/metrics", second))
	checkPrometheusFormat(t, body)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + second + "/metrics"); err == nil {
		t.Error("ops listener still serving after Close")
	}
}
