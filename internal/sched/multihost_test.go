package sched

import (
	"context"
	"sync"
	"testing"
	"time"

	"vecycle/internal/core"
	"vecycle/internal/vm"
)

// TestThreeHostConvergence sends a VM around a three-host ring with every
// host keeping departure and arrival images. From the third leg on the
// destination holds a checkpoint of the VM that the source's own does not
// name (the VM reached it via the third host), so those legs recycle by
// announcement. Every leg must land the guest byte for byte in one attempt,
// with no host reporting an error.
func TestThreeHostConvergence(t *testing.T) {
	hosts := make([]*Host, 3)
	addrs := make([]string, 3)
	var (
		errMu  sync.Mutex
		errLog []string
	)
	for i := range hosts {
		hosts[i] = newHost(t, string(rune('a'+i)))
		hosts[i].SaveArrivals = true
		hosts[i].OnError = func(err error) {
			errMu.Lock()
			defer errMu.Unlock()
			errLog = append(errLog, err.Error())
		}
		addrs[i] = listen(t, hosts[i])
	}
	g, err := vm.New(vm.Config{Name: "vm0", MemBytes: 64 * vm.PageSize, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	hosts[0].AddVM(g)

	wait := func(h *Host) *vm.VM {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if v, ok := h.VM("vm0"); ok {
				return v
			}
			if time.Now().After(deadline) {
				t.Fatal("VM never arrived")
			}
			time.Sleep(time.Millisecond)
		}
	}

	route := []int{1, 2, 0, 1}
	cur := 0
	var prev *vm.VM = g
	for leg, to := range route {
		attempts := 0
		m, err := hosts[cur].MigrateTo(context.Background(), addrs[to], "vm0", MigrateOptions{
			Recycle: true, KeepCheckpoint: true,
			OnAttempt: func(int, core.Metrics, error) { attempts++ },
		})
		if err != nil {
			t.Fatalf("leg %d (%d->%d): %v", leg+1, cur, to, err)
		}
		if attempts != 1 {
			t.Errorf("leg %d took %d attempts, want 1", leg+1, attempts)
		}
		v := wait(hosts[to])
		if !prev.MemEqual(v) {
			t.Fatalf("leg %d: memory differs", leg+1)
		}
		// Legs 3+ reach a host holding a checkpoint of the VM.
		if leg >= 2 && m.PagesSum == 0 {
			t.Errorf("leg %d recycled nothing", leg+1)
		}
		v.TouchRandomPages(8)
		prev = v
		cur = to
	}
	errMu.Lock()
	defer errMu.Unlock()
	if len(errLog) != 0 {
		t.Errorf("host errors on a fault-free ring: %v", errLog)
	}
}
