package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/core"
	"vecycle/internal/vm"
)

// Layer replay: after the traced legs, each layer's public functions are
// timed on their own, on the workload's guest image and the store of the
// host it ended on, from one goroutine (the two engine runs need a peer and
// use two). The numbers say what a layer can do alone; the phase spans say
// what it did inside a migration.

// replayFloor is how long a repeatable replay measurement keeps going, so
// the 16 MiB guest's numbers rest on more than a millisecond of work.
const replayFloor = 100 * time.Millisecond

// perSecond repeats fn until replayFloor has passed and reports work done
// per second, one call of fn doing `work` units.
func perSecond(work float64, fn func()) float64 {
	begin := time.Now()
	n := 0
	for {
		fn()
		n++
		if el := time.Since(begin); el >= replayFloor {
			return work * float64(n) / el.Seconds()
		}
	}
}

// spanPages is the run length the engine reads and installs in.
const spanPages = 256

func replayLayers(ctx context.Context, at *side, guest *vm.VM, r *result, rng *splitmix) (map[string]float64, error) {
	out := make(map[string]float64)
	pages := guest.NumPages()
	mb := float64(guest.MemBytes()) / 1e6
	store := at.host.Store()

	// vm: span reads out of the guest and span installs into a second one.
	scratch, err := vm.New(vm.Config{Name: "replay-cold", MemBytes: guest.MemBytes(), Seed: 1})
	if err != nil {
		return nil, err
	}
	span := make([]byte, spanPages*vm.PageSize)
	eachSpan := func(fn func(start, count int)) {
		for start := 0; start < pages; start += spanPages {
			fn(start, min(spanPages, pages-start))
		}
	}
	out["vm.read_range_mbps"] = perSecond(mb, func() {
		eachSpan(func(start, count int) { guest.ReadRange(start, count, span) })
	})
	out["vm.install_range_mbps"] = perSecond(mb, func() {
		eachSpan(func(start, count int) { scratch.InstallRange(start, span[:count*vm.PageSize]) })
	})

	// checksum: page digests in place, set probes, announcement codec.
	var sums []checksum.Sum
	out["checksum.md5_page_mbps"] = perSecond(mb, func() { sums = guest.RangeSums(0, pages, checksum.MD5, sums) })
	var keys []checksum.Sum
	out["checksum.sha256_page_mbps"] = perSecond(mb, func() { keys = guest.RangeSums(0, pages, checksum.SHA256, keys) })
	set := checksum.NewSet(pages)
	set.AddAll(sums)
	hits := 0
	out["checksum.set_probe_mprobes_s"] = perSecond(float64(pages)/1e6, func() {
		for _, s := range sums {
			if set.Contains(s) {
				hits++
			}
		}
	})
	if hits == 0 {
		return nil, fmt.Errorf("bench: replay: the sum set holds none of its own sums")
	}
	var enc bytes.Buffer
	var encErr error
	rawMB := float64(checksum.EncodedSize(set.Len())) / 1e6
	out["checksum.announce_encode_mbps"] = perSecond(rawMB, func() {
		enc.Reset()
		_, encErr = checksum.EncodeSetCompact(&enc, set)
	})
	if encErr != nil {
		return nil, fmt.Errorf("bench: replay: %w", encErr)
	}
	out["checksum.announce_ratio"] = float64(enc.Len()) / float64(checksum.EncodedSize(set.Len()))
	var decErr error
	out["checksum.announce_decode_mbps"] = perSecond(rawMB, func() {
		_, decErr = checksum.DecodeSetCompact(bytes.NewReader(enc.Bytes()))
	})
	if decErr != nil {
		return nil, fmt.Errorf("bench: replay: %w", decErr)
	}

	// checkpoint: the store the guest's own arrival checkpoint sits in.
	timed := func(work float64, fn func() error) (float64, error) {
		begin := time.Now()
		err := fn()
		return work / time.Since(begin).Seconds(), err
	}
	// Cold: a guest the store has never seen, every page new to the pool.
	buf := make([]byte, vm.PageSize)
	for i := 0; i < pages; i++ {
		rng.fillPage(buf)
		scratch.InstallPage(i, buf)
	}
	if out["checkpoint.save_cold_mbps"], err = timed(mb, func() error { return store.Save(scratch) }); err != nil {
		return nil, fmt.Errorf("bench: replay: cold save: %w", err)
	}
	if err := store.Remove(scratch.Name()); err != nil {
		return nil, fmt.Errorf("bench: replay: %w", err)
	}
	if _, err := store.GC(); err != nil {
		return nil, fmt.Errorf("bench: replay: %w", err)
	}
	// Warm: the guest itself after the workload's churn (at least one page),
	// with the migration's sum table in hand, as a departure save has it.
	churn(guest, rng, max(r.churnPages, 1))
	sums = guest.RangeSums(0, pages, checksum.MD5, sums)
	if out["checkpoint.save_warm_mbps"], err = timed(mb, func() error {
		return store.SaveWithSums(guest, checksum.MD5, sums)
	}); err != nil {
		return nil, fmt.Errorf("bench: replay: warm save: %w", err)
	}
	// Restore: with a guest to install into (the return path's bootstrap) and
	// without (index only).
	target, err := vm.New(vm.Config{Name: vmName, MemBytes: guest.MemBytes(), Seed: 1})
	if err != nil {
		return nil, err
	}
	var cp *checkpoint.Checkpoint
	if out["checkpoint.restore_install_mbps"], err = timed(mb, func() (err error) {
		cp, err = store.Restore(vmName, checksum.MD5, target)
		return err
	}); err != nil {
		return nil, fmt.Errorf("bench: replay: restore: %w", err)
	}
	cp.Close()
	begin := time.Now()
	if cp, err = store.Restore(vmName, checksum.MD5, nil); err != nil {
		return nil, fmt.Errorf("bench: replay: index restore: %w", err)
	}
	out["checkpoint.restore_index_ms"] = time.Since(begin).Seconds() * 1e3
	defer cp.Close()
	// Block reads by checksum, scattered over the image.
	probe := rand.New(rng).Perm(pages)[:min(pages, 4096)]
	var readErr error
	out["checkpoint.read_block_kpages_s"] = perSecond(float64(len(probe))/1e3, func() {
		for _, page := range probe {
			data, ok, err := cp.ReadBlock(sums[page])
			if err != nil || !ok {
				readErr = fmt.Errorf("bench: replay: block of page %d: found=%v err=%v", page, ok, err)
				return
			}
			cp.Release(data)
		}
	})
	if readErr != nil {
		return nil, readErr
	}

	// core: the engine pair over net.Pipe — cold (no store, every page in
	// full) and against the 0 %-churn checkpoint just saved (every page a
	// checksum).
	engine := func(src core.SourceOptions, dst core.DestOptions) (core.Metrics, float64, error) {
		into, err := vm.New(vm.Config{Name: vmName, MemBytes: guest.MemBytes(), Seed: 1})
		if err != nil {
			return core.Metrics{}, 0, err
		}
		settle(guest.MemBytes())
		sc, dc := net.Pipe()
		defer sc.Close()
		destErr := make(chan error, 1) // the one send below
		begin := time.Now()
		go func() {
			defer dc.Close()
			_, err := core.MigrateDest(ctx, dc, into, dst)
			destErr <- err
		}()
		m, err := core.MigrateSource(ctx, sc, guest, src)
		if err != nil {
			sc.Close() // unblock a destination still reading
		}
		if derr := <-destErr; err == nil {
			err = derr
		}
		secs := time.Since(begin).Seconds()
		if err == nil && !guest.MemEqual(into) {
			err = fmt.Errorf("the destination's memory differs")
		}
		return m, secs, err
	}
	target, scratch = nil, nil // the engine runs allocate their own destination guests
	m, secs, err := engine(core.SourceOptions{}, core.DestOptions{})
	if err != nil {
		return nil, fmt.Errorf("bench: replay: cold engine: %w", err)
	}
	out["core.engine_cold_mbps"] = float64(m.PagesFull) * vm.PageSize / 1e6 / secs
	m, secs, err = engine(core.SourceOptions{Recycle: true}, core.DestOptions{Store: store})
	if err != nil {
		return nil, fmt.Errorf("bench: replay: recycled engine: %w", err)
	}
	if m.PagesFull != 0 {
		return nil, fmt.Errorf("bench: replay: recycled engine sent %d full pages against a 0 %%-churn checkpoint", m.PagesFull)
	}
	out["core.engine_sum_mpages_s"] = float64(m.PagesSum) / 1e6 / secs
	return out, nil
}
