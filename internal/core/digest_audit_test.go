package core

import (
	"math/rand"
	"sync"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// TestDigestTableMigrationAudit ping-pongs one guest a→b→a→b between two
// stores the way two sched.Hosts would (bootstrap from the checkpoint the
// guest left behind, save both ends from the guests' digest tables), with seeded
// writes and plain installs between hops and a guest that keeps writing
// during round one — so pages are dirtied after the source read them — at
// every option set, with the source naming the checkpoint it
// holds (the destination matches it and announces nothing) and without (the
// destination announces). Either way the destination installs its checkpoint
// in the background, under round one. After every step each entry the guests'
// digest tables answer from must equal an independent digest of the bytes
// (vm.RangeSums never reads the table); after every hop the destination must
// hold the source's memory as of the pause, and both guests' tables — the
// source's filled by the engine writing its digests back while the guest
// wrote — must be complete, so neither save hashes a page.
func TestDigestTableMigrationAudit(t *testing.T) {
	for mi, mode := range []string{"plain", "verify"} {
		for _, named := range []bool{false, true} {
			name := engineSubtest + "/" + mode
			if named {
				name += "-named"
			}
			t.Run(name, func(t *testing.T) {
				auditPingPong(t, int64(mi+1), mode, named)
			})
		}
	}
}

func auditPingPong(t *testing.T, seed int64, mode string, named bool) {
	const pages = 600 // two full batches and a tail
	const alg = checksum.Default
	rng := rand.New(rand.NewSource(seed))
	here, there := newStore(t), newStore(t) // the stores of the guest's host and of its peer
	cur := newVM(t, "vm0", pages, seed)
	if err := cur.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	if err := cur.FillPatterned(0.3); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, vm.PageSize)
	// mutate is what a guest (WritePage, whole pages and partial updates) and
	// a tool poking memory behind the table's back (InstallPage) do between
	// hops.
	mutate := func(v *vm.VM, r *rand.Rand, n int) {
		for k := 0; k < n; k++ {
			p := r.Intn(pages)
			switch r.Intn(3) {
			case 0:
				r.Read(buf)
				v.WritePage(p, buf)
			case 1:
				v.ReadPage(p, buf)
				buf[r.Intn(vm.PageSize)] ^= 0x5A
				v.WritePage(p, buf)
			case 2:
				r.Read(buf)
				v.InstallPage(p, buf)
			}
		}
	}

	for hop := 0; hop < 4; hop++ {
		mutate(cur, rng, 1+rng.Intn(pages/8))
		checkDigestTable(t, cur)
		dst := newVM(t, "vm0", pages, seed+int64(hop)+1)

		sopts := SourceOptions{Recycle: true}
		dopts := DestOptions{Store: there, VerifyPayloads: mode == "verify"}
		if named && hop > 0 {
			sopts.Mirror = mirrorOf(t, here, "vm0")
		}
		// The guest keeps writing — a third of its pages, so the rest keep
		// their digests — until the stop-and-copy pause.
		paused := make(chan struct{})
		var writer sync.WaitGroup
		writer.Add(1)
		go func(r *rand.Rand) {
			defer writer.Done()
			wbuf := make([]byte, vm.PageSize)
			for {
				select {
				case <-paused:
					return
				default:
				}
				p := r.Intn(pages/3) * 3
				cur.ReadPage(p, wbuf)
				wbuf[r.Intn(vm.PageSize)]++
				cur.WritePage(p, wbuf)
			}
		}(rand.New(rand.NewSource(rng.Int63())))
		stopGuest := sync.OnceFunc(func() {
			close(paused)
			writer.Wait()
		})
		sopts.Pause = stopGuest
		sm, dres := migrate(t, cur, dst, sopts, dopts)
		stopGuest() // already stopped, unless the migration never paused
		checkTrackedResult(t, dst, dres)
		if hop > 0 {
			if !dres.UsedCheckpoint || dres.UnionBootstrap {
				t.Fatalf("hop %d: destination did not bootstrap from the guest's checkpoint", hop)
			}
			if sm.HashAvoidedBytes == 0 {
				t.Errorf("hop %d: the source took no digest from the guest's table", hop)
			}
			// Both hosts saved the same state last hop, so a named
			// checkpoint always matches; an unnamed one is announced.
			if (dres.Metrics.AnnounceBytes == 0) != named {
				t.Errorf("hop %d: named=%v but the destination announced %d bytes", hop, named, dres.Metrics.AnnounceBytes)
			}
		}

		if !cur.MemEqual(dst) {
			t.Fatalf("hop %d: destination differs from the paused source at page %d", hop, cur.FirstDifference(dst))
		}
		for side, v := range map[string]*vm.VM{"source": cur, "destination": dst} {
			checkDigestTable(t, v)
			if _, hashed := v.Digests(0, pages, nil); hashed != 0 {
				t.Errorf("hop %d: the %s's table leaves %d pages to hash", hop, side, hashed)
			}
		}
		// Save both ends from the guests' tables, as sched.Host does.
		if err := here.Save(cur); err != nil {
			t.Fatal(err)
		}
		if err := there.Save(dst); err != nil {
			t.Fatal(err)
		}

		// What the peer saved must restore to the same bytes, and the restore
		// must seed a table that is true of them.
		back := newVM(t, "vm0", pages, 99)
		cp, err := there.Restore("vm0", alg, back)
		if err != nil {
			t.Fatal(err)
		}
		cp.Close()
		if !back.MemEqual(dst) {
			t.Fatalf("hop %d: the saved checkpoint restores differently at page %d", hop, back.FirstDifference(dst))
		}
		checkDigestTable(t, back)
		if _, hashed := back.Digests(0, pages, nil); hashed != 0 {
			t.Errorf("hop %d: restore left %d pages without a digest", hop, hashed)
		}

		cur, here, there = dst, there, here
	}
}
