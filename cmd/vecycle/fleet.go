package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vecycle/internal/core"
	"vecycle/internal/obs"
	"vecycle/internal/sched"
	"vecycle/internal/vm"
)

// runFleet spins up an in-process cluster of TCP hosts and drives a
// round-robin of live migrations, printing how the per-migration traffic
// collapses once every host holds checkpoints — the fleet-scale view of
// the paper's claim.
func runFleet(args []string) error {
	fs := flag.NewFlagSet("vecycle fleet", flag.ContinueOnError)
	var (
		hostCount = fs.Int("hosts", 3, "number of hosts")
		vmCount   = fs.Int("vms", 4, "number of VMs")
		mem       = fs.String("mem", "8MiB", "memory size per VM")
		rounds    = fs.Int("rounds", 3, "migration rounds (each VM moves once per round)")
		touches   = fs.Int("touch", 32, "pages dirtied by each guest between rounds")
		compress  = fs.Bool("compress", false, "deflate-compress full-page payloads")
		noSalvage = fs.Bool("no-salvage", false, "discard partially-installed pages on failed incoming migrations fleet-wide")
		tcpRead   = fs.Int("tcp-read-buffer", 0, "SO_RCVBUF for migration sockets in bytes (0 = OS default)")
		tcpWrite  = fs.Int("tcp-write-buffer", 0, "SO_SNDBUF for migration sockets in bytes (0 = OS default)")
		opsAddr   = fs.String("ops-addr", "", "serve the whole fleet's /metrics, /debug/migrations and /debug/pprof on this address")
		traceOut  = fs.String("trace-out", "", "write the fleet's migration traces as JSONL to this file on exit (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *hostCount < 2 {
		return fmt.Errorf("need at least 2 hosts")
	}
	memBytes, err := parseMem(*mem)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "vecycle-fleet-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// One registry and trace log for the whole fleet: every host reports
	// into the same scrape endpoint, distinguished by the host label.
	reg := obs.NewRegistry()
	traces := obs.NewTraceLog(0)
	if *opsAddr != "" {
		srv, err := serveSharedOps(*opsAddr, reg, traces)
		if err != nil {
			return err
		}
		defer srv.Close()
	}

	var arrived sync.WaitGroup
	hosts := make([]*sched.Host, *hostCount)
	addrs := make([]string, *hostCount)
	for i := range hosts {
		name := fmt.Sprintf("host-%d", i)
		h, err := sched.NewHost(name, filepath.Join(dir, name))
		if err != nil {
			return err
		}
		h.UseObservability(reg, traces)
		h.SaveArrivals = true
		h.NoSalvage = *noSalvage
		h.TCPReadBuffer = *tcpRead
		h.TCPWriteBuffer = *tcpWrite
		h.OnArrival = func(*vm.VM, core.DestResult) { arrived.Done() }
		addr, err := h.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer h.Close()
		hosts[i] = h
		addrs[i] = addr
	}

	placement := make([]int, *vmCount)
	for i := 0; i < *vmCount; i++ {
		name := fmt.Sprintf("vm-%d", i)
		guest, err := vm.New(vm.Config{Name: name, MemBytes: memBytes, Seed: int64(i) + 1})
		if err != nil {
			return err
		}
		if err := guest.FillRandom(0.95); err != nil {
			return err
		}
		placement[i] = i % *hostCount
		hosts[placement[i]].AddVM(guest)
	}
	fmt.Printf("fleet: %d VMs x %s over %d hosts, %d rounds\n\n", *vmCount, *mem, *hostCount, *rounds)

	for round := 1; round <= *rounds; round++ {
		var roundBytes int64
		var roundDuration time.Duration
		for i := 0; i < *vmCount; i++ {
			name := fmt.Sprintf("vm-%d", i)
			from := placement[i]
			to := (from + 1 + i%(*hostCount-1)) % *hostCount
			if to == from {
				to = (to + 1) % *hostCount
			}
			arrived.Add(1)
			m, err := hosts[from].MigrateTo(context.Background(), addrs[to], name, sched.MigrateOptions{
				Recycle:        true,
				UseDelta:       true,
				KeepCheckpoint: true,
				Compress:       *compress,
			})
			if err != nil {
				return fmt.Errorf("round %d, %s: %w", round, name, err)
			}
			arrived.Wait()
			placement[i] = to
			roundBytes += m.BytesSent
			roundDuration += m.Duration

			landed, ok := hosts[to].VM(name)
			if !ok {
				return fmt.Errorf("%s lost in round %d", name, round)
			}
			landed.TouchRandomPages(*touches)
		}
		fmt.Printf("round %d: %s total on the wire, %v cumulative migration time\n",
			round, core.FormatBytes(roundBytes), roundDuration.Round(time.Millisecond))
	}
	fmt.Println("\nlater rounds revisit checkpointed hosts: traffic drops to the working set")
	return writeTraces(traces, *traceOut)
}
