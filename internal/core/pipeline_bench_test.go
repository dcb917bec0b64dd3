package core

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"

	"vecycle/internal/vm"
)

const benchPages = 4096 // 16 MiB guest

func benchVM(b *testing.B, seed int64) *vm.VM {
	b.Helper()
	v, err := vm.New(vm.Config{Name: "bench-vm", MemBytes: benchPages * vm.PageSize, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	// Half patterned, half random.
	if err := v.FillRandom(1.0); err != nil {
		b.Fatal(err)
	}
	if err := v.FillPatterned(0.5); err != nil {
		b.Fatal(err)
	}
	return v
}

// forgetDigests rewrites every page of v in place, outside the timer, so its
// digest table is empty again: each iteration of a cold-round benchmark then
// migrates a guest that never migrated, as the first iteration did, instead
// of one whose table the previous iteration's source filled.
func forgetDigests(b *testing.B, v *vm.VM) {
	b.StopTimer()
	buf := make([]byte, vm.PageSize)
	for i := 0; i < v.NumPages(); i++ {
		v.ReadPage(i, buf)
		v.WritePage(i, buf)
	}
	b.StartTimer()
}

// BenchmarkFirstRound measures a cold first-round migration (a guest that
// never migrated, so the source hashes every page; no checkpoint at the
// destination, every page crosses the wire in full) over net.Pipe —
// tools/benchgate gates this series against the committed recording in
// BENCH_migration.json.
func BenchmarkFirstRound(b *testing.B) {
	src := benchVM(b, 7)
	dst := benchVM(b, 8)
	b.SetBytes(benchPages * vm.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forgetDigests(b, src)
		a, c := net.Pipe()
		var wg sync.WaitGroup
		var serr, derr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, derr = MigrateDest(context.Background(), c, dst, DestOptions{})
		}()
		_, serr = MigrateSource(context.Background(), a, src, SourceOptions{})
		wg.Wait()
		a.Close()
		c.Close()
		if serr != nil || derr != nil {
			b.Fatalf("source: %v, dest: %v", serr, derr)
		}
	}
}

// BenchmarkTrackIncoming is BenchmarkFirstRound asserting that the
// destination's round-end track pass — completing the arrived guest's digest
// table, the ping-pong preparation (§3.2) every migration runs — hashes
// nothing. Before the hash-once lifecycle the destination paid a full-image
// digest pass at round end on top of the migration itself; install-time sum
// recording shrank that pass to only unobserved pages, which in a clean run
// is none. tools/benchgate gates this series against the committed
// recording, keeping that overhead from creeping back.
func BenchmarkTrackIncoming(b *testing.B) {
	src := benchVM(b, 7)
	dst := benchVM(b, 8)
	b.SetBytes(benchPages * vm.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forgetDigests(b, src)
		a, c := net.Pipe()
		var wg sync.WaitGroup
		var serr, derr error
		var res DestResult
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, derr = MigrateDest(context.Background(), c, dst, DestOptions{})
		}()
		_, serr = MigrateSource(context.Background(), a, src, SourceOptions{})
		wg.Wait()
		a.Close()
		c.Close()
		if serr != nil || derr != nil {
			b.Fatalf("source: %v, dest: %v", serr, derr)
		}
		if res.Metrics.HashBytes != 0 {
			b.Fatalf("round-end pass digested %d bytes; install-time sums were not recycled", res.Metrics.HashBytes)
		}
	}
}

// BenchmarkFirstRoundTCP is BenchmarkFirstRound over a real 127.0.0.1 TCP
// connection instead of net.Pipe: syscalls, kernel socket buffers, and
// segmentation are in the measured path, so the batch-sized wire buffers
// show up here as fewer write(2) calls per round. Not gated by
// tools/benchgate (loopback throughput varies more across kernels than the
// in-process pipe), but recorded alongside it for comparison.
func BenchmarkFirstRoundTCP(b *testing.B) {
	src := benchVM(b, 7)
	dst := benchVM(b, 8)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	b.SetBytes(benchPages * vm.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forgetDigests(b, src)
		var wg sync.WaitGroup
		var derr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := ln.Accept()
			if err != nil {
				derr = err
				return
			}
			defer c.Close()
			c.(*net.TCPConn).SetNoDelay(true)
			_, derr = MigrateDest(context.Background(), c, dst, DestOptions{})
		}()
		a, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		a.(*net.TCPConn).SetNoDelay(true)
		_, serr := MigrateSource(context.Background(), a, src, SourceOptions{})
		wg.Wait()
		a.Close()
		if serr != nil || derr != nil {
			b.Fatalf("source: %v, dest: %v", serr, derr)
		}
	}
}

// BenchmarkMergeLoop isolates the destination: one migration's inbound
// byte stream is recorded once, then replayed from memory, so the numbers
// reflect decode + verify + install throughput alone.
func BenchmarkMergeLoop(b *testing.B) {
	src := benchVM(b, 7)
	rec := recordStream(b, src)
	dst := benchVM(b, 8)
	b.SetBytes(benchPages * vm.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn := readWriter{bytes.NewReader(rec), io.Discard}
		if _, err := MigrateDest(context.Background(), conn, dst, DestOptions{VerifyPayloads: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDestInstall isolates the destination's memory-install primitive:
// the per-page InstallPage loop the merge path used for every frame versus
// one vectorized InstallRange call per 256-page span — the copy a decoded
// range-full frame lands with.
func BenchmarkDestInstall(b *testing.B) {
	v := benchVM(b, 12)
	data := make([]byte, batchPages*vm.PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	b.Run("per-page", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			for p := 0; p < batchPages; p++ {
				v.InstallPage(p, data[p*vm.PageSize:(p+1)*vm.PageSize])
			}
		}
	})
	b.Run("range", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			v.InstallRange(0, data)
		}
	})
}

// recordStream runs one real migration and captures every byte the
// destination read.
func recordStream(b *testing.B, src *vm.VM) []byte {
	b.Helper()
	dst := benchVM(b, 9)
	a, c := net.Pipe()
	defer a.Close()
	defer c.Close()
	rc := &recordConn{Conn: a}
	var wg sync.WaitGroup
	var derr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, derr = MigrateDest(context.Background(), c, dst, DestOptions{})
	}()
	if _, err := MigrateSource(context.Background(), rc, src, SourceOptions{}); err != nil {
		b.Fatal(err)
	}
	wg.Wait()
	if derr != nil {
		b.Fatal(derr)
	}
	return rc.rec.Bytes()
}
