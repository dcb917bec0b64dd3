package core

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"vecycle/internal/vm"
)

// scriptedPeer builds the exact byte sequence a baseline destination sends a
// source: a positive hello-ack (no checkpoint, so no announcement) and the
// final ack. Replaying it from memory lets a test run the full source engine
// — batches, compression, round loop — with no peer goroutine, so memory
// measurements see only the source's own allocations.
func scriptedPeer(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeHelloAck(&buf, helloAck{OK: true}); err != nil {
		t.Fatal(err)
	}
	if err := writeMsgType(&buf, msgAck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// migrationAllocBytes reports the average bytes allocated by one compressed
// source migration, after warming the process-wide pools.
func migrationAllocBytes(t *testing.T, v *vm.VM, script []byte) uint64 {
	t.Helper()
	run := func() {
		conn := readWriter{bytes.NewReader(script), io.Discard}
		if _, err := MigrateSource(context.Background(), conn, v, SourceOptions{Compress: true}); err != nil {
			t.Fatal(err)
		}
	}
	return steadyAllocBytes(run)
}

// steadyAllocBytes runs run three times to warm the process-wide pools, then
// returns the average bytes one further run allocates.
func steadyAllocBytes(run func()) uint64 {
	for i := 0; i < 3; i++ {
		run()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const iters = 5
	for i := 0; i < iters; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / iters
}

// TestPipelineAllocCeiling pins the source engine's steady-state allocation:
// its encoder is created once per migration and its deflate state is pooled
// process-wide, so a compressed migration allocates only batch bookkeeping.
// Rebuilding the encoder every round — a deflate window of several hundred
// KiB each time — would break the ceiling.
func TestPipelineAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation skews allocation accounting")
	}
	const pages = 512 // 2 MiB guest, compressible: the deflate path stays hot
	v, err := vm.New(vm.Config{Name: "alloc-vm", MemBytes: pages * vm.PageSize, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.FillCompressible(1.0); err != nil {
		t.Fatal(err)
	}
	got := migrationAllocBytes(t, v, scriptedPeer(t))
	t.Logf("steady-state alloc per migration: %d B", got)
	const ceiling = 1 << 20 // 1 MiB; one deflate window alone is ~600 KiB
	if got > ceiling {
		t.Errorf("source migration allocates %d B, want <= %d", got, ceiling)
	}
}

// TestMigrationAllocCeiling pins the steady-state allocation of one complete
// migration — source and destination, over net.Pipe: with wire buffers,
// batches and the destination's range-frame and install scratch pooled
// process-wide, what is left is per-migration bookkeeping. Any one of those
// 1 MiB buffers allocated afresh per migration would break the ceiling.
func TestMigrationAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation skews allocation accounting")
	}
	// sync.Pool caches are per P: on a multi-core runner a goroutine that
	// lands on another P misses the warm 1 MiB buffers and allocates fresh
	// ones. One P keeps it the deterministic count of what the engine itself
	// allocates.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const pages = 512 // 2 MiB guest, half random: both encoder branches hot
	newGuest := func(name string, seed int64) *vm.VM {
		v, err := vm.New(vm.Config{Name: name, MemBytes: pages * vm.PageSize, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.FillRandom(1.0); err != nil {
			t.Fatal(err)
		}
		if err := v.FillCompressible(0.5); err != nil {
			t.Fatal(err)
		}
		return v
	}
	src := newGuest("flat-src", 17)
	dst := newGuest("flat-src", 18) // same name: a migration replaces the content
	got := steadyAllocBytes(func() {
		a, c := net.Pipe()
		var wg sync.WaitGroup
		var derr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, derr = MigrateDest(context.Background(), c, dst, DestOptions{})
		}()
		_, serr := MigrateSource(context.Background(), a, src, SourceOptions{Compress: true})
		wg.Wait()
		a.Close()
		c.Close()
		if serr != nil || derr != nil {
			t.Fatalf("source: %v, dest: %v", serr, derr)
		}
	})
	t.Logf("full-migration alloc: %d B", got)
	const ceiling = 256 << 10 // a quarter of any one of the pooled 1 MiB buffers
	if got > ceiling {
		t.Errorf("migration allocates %d B, want <= %d", got, ceiling)
	}
}

// TestBatchPoolBound pins putBatch's retention cap: a batch whose frame
// buffer ballooned past maxPooledBatchBytes returns to the pool with the
// buffer dropped, while ordinarily sized buffers keep their capacity for
// reuse.
func TestBatchPoolBound(t *testing.T) {
	big := batchPool.Get().(*pageBatch)
	big.buf.Grow(maxPooledBatchBytes + 1)
	putBatch(big)
	if c := big.buf.Cap(); c != 0 {
		t.Errorf("oversized buffer retained %d B after putBatch, want dropped", c)
	}

	ok := batchPool.Get().(*pageBatch)
	ok.buf.Grow(maxPooledBatchBytes / 2)
	want := ok.buf.Cap()
	putBatch(ok)
	if c := ok.buf.Cap(); c != want {
		t.Errorf("in-bound buffer capacity %d after putBatch, want %d retained", c, want)
	}
	if len(ok.pages) != 0 || len(ok.data) != 0 || ok.buf.Len() != 0 {
		t.Error("putBatch left residual batch state")
	}
}
