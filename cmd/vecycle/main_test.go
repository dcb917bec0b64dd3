package main

import (
	"path/filepath"
	"testing"
)

func TestParseMem(t *testing.T) {
	cases := []struct {
		in      string
		want    int64
		wantErr bool
	}{
		{"4096", 4096, false},
		{"4096B", 4096, false},
		{"4KiB", 4 << 10, false},
		{"64MiB", 64 << 20, false},
		{"1GiB", 1 << 30, false},
		{"1.5GiB", 3 << 29, false},
		{"", 0, true},
		{"12XB", 0, true},
		{"GiB", 0, true},
	}
	for _, tc := range cases {
		got, err := parseMem(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseMem(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("parseMem(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"source"}); err == nil {
		t.Error("source without -dest accepted")
	}
	if err := run([]string{"dest"}); err == nil {
		t.Error("dest without -store accepted")
	}
}

func TestDemoEndToEnd(t *testing.T) {
	// The demo runs two in-process hosts; a tiny guest keeps it fast.
	err := run([]string{"demo", "-mem", "1MiB", "-migrations", "2", "-touch", "4"})
	if err != nil {
		t.Fatalf("demo failed: %v", err)
	}
}

func TestFleetEndToEnd(t *testing.T) {
	// The fleet command end-to-end: every VM moves every round and must be
	// resident at its destination host afterwards.
	err := run([]string{"fleet", "-hosts", "2", "-vms", "2", "-mem", "1MiB",
		"-rounds", "2", "-touch", "4"})
	if err != nil {
		t.Fatalf("fleet failed: %v", err)
	}
}

func TestSourceDestOverTCP(t *testing.T) {
	dir := t.TempDir()
	destStore := filepath.Join(dir, "dest")
	srcStore := filepath.Join(dir, "src")

	// Start the destination for exactly one migration on an ephemeral
	// port... the CLI does not report the bound port, so use a fixed
	// localhost port unlikely to clash.
	const addr = "127.0.0.1:39719"
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"dest", "-listen", addr, "-store", destStore, "-count", "1"})
	}()

	// The source retries dialing until the listener is up.
	var err error
	for i := 0; i < 100; i++ {
		err = run([]string{"source", "-dest", addr, "-store", srcStore, "-vm", "cli-vm", "-mem", "1MiB"})
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	if derr := <-errc; derr != nil {
		t.Fatalf("dest: %v", derr)
	}
}
