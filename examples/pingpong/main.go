// Ping-pong: the paper's headline migration pattern (Birke et al.: 68% of
// VMs only ever visit two hosts). Two hosts with TCP listeners move a busy
// VM back and forth; each host keeps a checkpoint of every departure and
// every arrival, so on a return leg both ends hold the same checkpoint under
// the same manifest root: the source names it in its hello and the
// destination skips the hash announcement (§3.2).
//
//	go run ./examples/pingpong
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"vecycle/internal/core"
	"vecycle/internal/sched"
	"vecycle/internal/vm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pingpong: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "vecycle-pingpong-*")
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
	onArrival := func(v *vm.VM, res core.DestResult) {
		fmt.Printf("    arrived: %d pages reused in place, %d repaired from checkpoint disk\n",
			res.Metrics.PagesReusedInPlace, res.Metrics.PagesReusedFromDisk)
		arrived.Done()
	}
	alpha.OnArrival = onArrival
	beta.OnArrival = onArrival
	// The arrival image is what the return leg's hello names.
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
	fmt.Printf("alpha on %s, beta on %s\n\n", addrA, addrB)

	guest, err := vm.New(vm.Config{Name: "consolidated-vm", MemBytes: 32 << 20, Seed: 7})
	if err != nil {
		return err
	}
	if err := guest.FillRandom(0.95); err != nil {
		return err
	}
	alpha.AddVM(guest)

	hosts := []*sched.Host{alpha, beta}
	addrs := []string{addrA, addrB}
	const legs = 6
	for i := 0; i < legs; i++ {
		from, toIdx := hosts[i%2], (i+1)%2
		arrived.Add(1)
		m, err := from.MigrateTo(context.Background(), addrs[toIdx], "consolidated-vm", sched.MigrateOptions{
			Recycle:        true,
			KeepCheckpoint: true,
		})
		if err != nil {
			return err
		}
		arrived.Wait()
		mode := "announce"
		if m.AnnounceBytes == 0 && m.PagesSum > 0 {
			mode = "ping-pong (named, no announce)"
		}
		if m.PagesSum == 0 {
			mode = "full (first visit)"
		}
		fmt.Printf("leg %d %s -> %s: %s sent, %d full / %d checksum pages [%s]\n",
			i+1, from.Name(), hosts[toIdx].Name(),
			core.FormatBytes(m.BytesSent), m.PagesFull, m.PagesSum, mode)

		// Work a little before the next leg: 3% of memory changes.
		landed, ok := hosts[toIdx].VM("consolidated-vm")
		if !ok {
			return fmt.Errorf("VM missing after leg %d", i+1)
		}
		landed.TouchRandomPages(landed.NumPages() * 3 / 100)
	}
	return nil
}
