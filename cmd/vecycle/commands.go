package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"vecycle/internal/core"
	"vecycle/internal/sched"
	"vecycle/internal/vm"
)

func runDest(args []string) error {
	fs := flag.NewFlagSet("vecycle dest", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:7001", "address to accept migrations on")
		store     = fs.String("store", "", "checkpoint store directory (required)")
		count     = fs.Int("count", 1, "number of migrations to accept before exiting (0 = forever)")
		name      = fs.String("name", "dest-host", "host name")
		noSalvage = fs.Bool("no-salvage", false, "discard partially-installed pages on failed incoming migrations instead of persisting a salvage checkpoint")
		tcpRead   = fs.Int("tcp-read-buffer", 0, "SO_RCVBUF for migration sockets in bytes (0 = OS default)")
		tcpWrite  = fs.Int("tcp-write-buffer", 0, "SO_SNDBUF for migration sockets in bytes (0 = OS default)")
		opsAddr   = fs.String("ops-addr", "", "serve /metrics, /debug/migrations and /debug/pprof on this address (e.g. :9090)")
		traceOut  = fs.String("trace-out", "", "write migration traces as JSONL to this file on exit (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *store == "" {
		return fmt.Errorf("-store is required")
	}
	host, err := sched.NewHost(*name, *store)
	if err != nil {
		return err
	}
	host.NoSalvage = *noSalvage
	host.TCPReadBuffer = *tcpRead
	host.TCPWriteBuffer = *tcpWrite
	if err := startOps(host, *opsAddr); err != nil {
		return err
	}
	arrivals := make(chan core.DestResult)
	host.OnArrival = func(v *vm.VM, res core.DestResult) {
		fmt.Printf("VM %q arrived: %d full pages, %d checksum-only (%d reused in place, %d from disk), checkpoint=%v\n",
			v.Name(), res.Metrics.PagesFull, res.Metrics.PagesSum,
			res.Metrics.PagesReusedInPlace, res.Metrics.PagesReusedFromDisk, res.UsedCheckpoint)
		arrivals <- res
	}
	addr, err := host.Listen(*listen)
	if err != nil {
		return err
	}
	defer host.Close()
	fmt.Printf("host %s listening on %s (store %s)\n", *name, addr, *store)
	for i := 0; *count == 0 || i < *count; i++ {
		<-arrivals
	}
	return writeTraces(host.Traces(), *traceOut)
}

func runSource(args []string) error {
	fs := flag.NewFlagSet("vecycle source", flag.ContinueOnError)
	var (
		dest     = fs.String("dest", "", "destination host address (required)")
		vmName   = fs.String("vm", "vm0", "VM name")
		mem      = fs.String("mem", "64MiB", "VM memory size (e.g. 64MiB, 1GiB)")
		fill     = fs.Float64("fill", 0.95, "fraction of memory filled with random data before migrating")
		seed     = fs.Int64("seed", 1, "guest content seed")
		store    = fs.String("store", "", "checkpoint store directory (required)")
		recycle  = fs.Bool("recycle", true, "enable checkpoint-assisted migration")
		postcopy = fs.Bool("postcopy", false, "use the post-copy protocol (manifest + demand fetch)")
		compress = fs.Bool("compress", false, "deflate-compress full-page payloads (entropy-gated per page)")
		tcpRead  = fs.Int("tcp-read-buffer", 0, "SO_RCVBUF for migration sockets in bytes (0 = OS default)")
		tcpWrite = fs.Int("tcp-write-buffer", 0, "SO_SNDBUF for migration sockets in bytes (0 = OS default)")
		rounds   = fs.Int("max-rounds", 0, "pre-copy round cap (0 = engine default)")
		stopAt   = fs.Int("stop-threshold", 0, "dirty-page count triggering the final round (0 = engine default)")
		idle     = fs.Duration("idle-timeout", 0, "per-I/O idle timeout (0 = default, negative disables)")
		retries  = fs.Int("retries", 1, "total migration attempts on transient transport failures")
		opsAddr  = fs.String("ops-addr", "", "serve /metrics, /debug/migrations and /debug/pprof on this address (e.g. :9090)")
		traceOut = fs.String("trace-out", "", "write migration traces as JSONL to this file on exit (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dest == "" || *store == "" {
		return fmt.Errorf("-dest and -store are required")
	}
	memBytes, err := parseMem(*mem)
	if err != nil {
		return err
	}
	host, err := sched.NewHost("source-host", *store)
	if err != nil {
		return err
	}
	guest, err := vm.New(vm.Config{Name: *vmName, MemBytes: memBytes, Seed: *seed})
	if err != nil {
		return err
	}
	if err := guest.FillRandom(*fill); err != nil {
		return err
	}
	host.AddVM(guest)
	host.TCPReadBuffer = *tcpRead
	host.TCPWriteBuffer = *tcpWrite
	if *idle != 0 {
		host.IdleTimeout = *idle
	}
	if err := startOps(host, *opsAddr); err != nil {
		return err
	}
	defer host.Close()
	if *postcopy {
		m, err := host.PostCopyTo(context.Background(), *dest, *vmName)
		if err != nil {
			return err
		}
		fmt.Printf("post-copy complete: %s\n", m)
		return writeTraces(host.Traces(), *traceOut)
	}
	m, err := host.MigrateTo(context.Background(), *dest, *vmName, sched.MigrateOptions{
		Recycle:        *recycle,
		KeepCheckpoint: true,
		Compress:       *compress,
		MaxRounds:      *rounds,
		StopThreshold:  *stopAt,
		IdleTimeout:    *idle,
		Retry:          sched.RetryPolicy{Attempts: *retries},
	})
	if err != nil {
		return err
	}
	printMetrics("migration complete", m)
	return writeTraces(host.Traces(), *traceOut)
}

func runDemo(args []string) error {
	fs := flag.NewFlagSet("vecycle demo", flag.ContinueOnError)
	var (
		mem        = fs.String("mem", "64MiB", "VM memory size")
		migrations = fs.Int("migrations", 4, "number of ping-pong migrations")
		touches    = fs.Int("touch", 64, "pages dirtied by the guest between migrations")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	memBytes, err := parseMem(*mem)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "vecycle-demo-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	alpha, err := sched.NewHost("alpha", filepath.Join(dir, "alpha"))
	if err != nil {
		return err
	}
	beta, err := sched.NewHost("beta", filepath.Join(dir, "beta"))
	if err != nil {
		return err
	}
	var arrived sync.WaitGroup
	notify := func(v *vm.VM, res core.DestResult) { arrived.Done() }
	alpha.OnArrival = notify
	beta.OnArrival = notify
	// Keeping the arrival image too means a return finds the same checkpoint
	// at both ends: the hello names it and nothing is announced (recv stays
	// at a few bytes from migration 2 on).
	alpha.SaveArrivals = true
	beta.SaveArrivals = true

	addrA, err := alpha.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer alpha.Close()
	addrB, err := beta.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer beta.Close()

	guest, err := vm.New(vm.Config{Name: "demo-vm", MemBytes: memBytes, Seed: 42})
	if err != nil {
		return err
	}
	if err := guest.FillRandom(0.95); err != nil {
		return err
	}
	alpha.AddVM(guest)
	fmt.Printf("demo: %s guest ping-ponging %d times between alpha (%s) and beta (%s)\n\n",
		*mem, *migrations, addrA, addrB)

	hosts := []*sched.Host{alpha, beta}
	addrs := []string{addrA, addrB}
	for i := 0; i < *migrations; i++ {
		from, to := hosts[i%2], (i+1)%2
		arrived.Add(1)
		m, err := from.MigrateTo(context.Background(), addrs[to], "demo-vm", sched.MigrateOptions{
			Recycle:        true,
			KeepCheckpoint: true,
		})
		if err != nil {
			return err
		}
		arrived.Wait()
		printMetrics(fmt.Sprintf("migration %d (%s -> %s)", i+1, from.Name(), hosts[to].Name()), m)

		// The guest works a little before moving again.
		landed, ok := hosts[to].VM("demo-vm")
		if !ok {
			return fmt.Errorf("demo: VM lost after migration %d", i+1)
		}
		landed.TouchRandomPages(*touches)
	}
	fmt.Println("\nafter the first migration, checkpoints at both hosts shrink every transfer,")
	fmt.Println("and every return names its checkpoint in the hello instead of receiving an announcement")
	return nil
}
