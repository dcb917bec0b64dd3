package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// A return matched by name leaves out of round one every page still equal to
// the named checkpoint; every other leg's round one tiles the guest. These
// tests pin both halves: the destination refuses a gap it has no checkpoint
// of the source's naming to fill, and the source's omission is a function of
// a page's content in round one alone.

// roundOneEnd walks a recorded source stream from the end of its hello to
// round one's round-end, failing the test unless every frame starts where the
// last one ended, and returns where the last one ended.
func roundOneEnd(t *testing.T, stream []byte, helloLen int) uint64 {
	t.Helper()
	var end uint64
	for rest := stream[helloLen:]; len(rest) > 0; {
		switch tag := msgType(rest[0]); tag {
		case msgRoundEnd:
			return end
		case msgRangeSum, msgRangeFull:
			if start := binary.LittleEndian.Uint64(rest[1:9]); start != end {
				t.Fatalf("round one jumps from page %d to a %v at %d", end, tag, start)
			}
			end += uint64(rest[9]) + 1
			rest = rest[rangeFrameSize(rest):]
		default:
			t.Fatalf("unexpected %v in round one", tag)
		}
	}
	t.Fatal("the stream ends inside round one")
	return 0
}

// TestRoundOneGap: a round one that skips pages is refused on a leg without a
// checkpoint and on an announced one — the skipped frames would silently keep
// a zero page or whatever the checkpoint had there — and converges on a leg
// matched by name, where the skipped frames are the named checkpoint's and
// count as kept.
func TestRoundOneGap(t *testing.T) {
	const pages = 64
	for _, leg := range []string{"cold", "announced", "matched"} {
		t.Run(leg, func(t *testing.T) {
			want := newVM(t, "vm0", pages, 1)
			if err := want.FillRandom(1.0); err != nil {
				t.Fatal(err)
			}
			var store *checkpoint.Store
			if leg != "cold" {
				store = newStore(t)
				if err := store.Save(want); err != nil {
					t.Fatal(err)
				}
			}
			dst := newVM(t, "vm0", pages, 2)
			hs, done := dialDest(t, context.Background(), store, dst, leg == "matched")

			// Pages 5 and 9 cross in full; 0–4, 6–8 and 10–63 do not.
			var frames bytes.Buffer
			rng := rand.New(rand.NewSource(7))
			page := make([]byte, vm.PageSize)
			for _, p := range []int{5, 9} {
				rng.Read(page)
				want.WritePage(p, page)
				if err := writeRangePage(&frames, uint64(p), checksum.Default.Page(page), page); err != nil {
					t.Fatal(err)
				}
			}
			for _, err := range []error{writeRoundEnd(&frames, 1, 0), writeRoundEnd(&frames, 2, 0), writeMsgType(&frames, msgDone)} {
				if err != nil {
					t.Fatal(err)
				}
			}
			// A refused stream is not read to its end; the pipe's close
			// releases the write. An accepted one is acknowledged.
			go func() {
				_, _ = hs.w.Write(frames.Bytes())
				_ = hs.w.Flush()
				_, _ = readMsgType(hs.r)
			}()
			out := <-done
			if leg != "matched" {
				if !errors.Is(out.err, ErrProtocol) || !strings.Contains(out.err.Error(), "round one skips pages [0, 5)") {
					t.Fatalf("a %s round one with gaps ended in %v, want ErrProtocol for its first gap", leg, out.err)
				}
				return
			}
			if out.err != nil {
				t.Fatal(out.err)
			}
			if !want.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", want.FirstDifference(dst))
			}
			if got := out.res.Metrics.PagesKept; got != pages-2 {
				t.Errorf("destination kept %d pages, want %d", got, pages-2)
			}
			checkTrackedResult(t, dst, out.res)
		})
	}
}

// TestKeepRoundOneOnly: a page sent in full in round one and rewritten to its
// checkpoint content before the pause crosses round two as a range-sum — its
// frame holds round one's bytes by then, not the checkpoint's — and the
// destination repairs it from the checkpoint.
func TestKeepRoundOneOnly(t *testing.T) {
	const pages, back = 128, 40
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	old := make([]byte, vm.PageSize)
	src.ReadPage(back, old)
	page := make([]byte, vm.PageSize)
	rand.New(rand.NewSource(3)).Read(page)
	src.WritePage(back, page)

	dst := newVM(t, "vm0", pages, 2)
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true, Mirror: mirrorOf(t, store, "vm0"), Pause: func() { src.WritePage(back, old) }},
		DestOptions{Store: store, VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if sm.Rounds != 2 || sm.PagesKept != pages-1 || sm.PagesFull != 1 || sm.PagesSum != 1 {
		t.Errorf("%d rounds, %d pages kept, %d full, %d sums; want 2 rounds, %d kept in round one, page %d in full and then as a checksum",
			sm.Rounds, sm.PagesKept, sm.PagesFull, sm.PagesSum, pages-1, back)
	}
	if dres.Metrics.PagesReusedFromDisk != 1 || dres.Metrics.PagesKept != pages-1 {
		t.Errorf("destination repaired %d pages from disk and kept %d, want 1 and %d",
			dres.Metrics.PagesReusedFromDisk, dres.Metrics.PagesKept, pages-1)
	}
}

// TestKeepFollowsContent: a page rewritten with the bytes it had has no
// digest in the guest's table but still equals its key, and is left out all
// the same — the source hashes it, finds the key and omits it. The stream is
// byte for byte the one the same guest sends once its table is complete,
// when every such page's digest comes from the table without hashing.
func TestKeepFollowsContent(t *testing.T) {
	const pages = 512
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	src.CompleteDigests()
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	page := make([]byte, vm.PageSize)
	same, changed := 0, 0
	for _, p := range rng.Perm(pages)[:96] {
		if p%2 == 0 {
			src.ReadPage(p, page) // the same bytes, written again
			same++
		} else {
			rng.Read(page)
			changed++
		}
		src.WritePage(p, page)
	}
	run := func() ([]byte, Metrics) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		rc := &recordConn{Conn: a}
		dst := newVM(t, "vm0", pages, 2)
		sm, _ := migrateOver(t, rc, b, src, dst,
			SourceOptions{Recycle: true, Mirror: mirrorOf(t, store, "vm0")},
			DestOptions{Store: store, VerifyPayloads: true})
		if !src.MemEqual(dst) {
			t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
		}
		return rc.rec.Bytes(), sm
	}
	// The first run writes the digests it computed back to the guest's
	// table, so the second finds every page's digest there.
	first, m1 := run()
	second, m2 := run()
	if m1.HashBytes != int64(same+changed)*vm.PageSize || m2.HashBytes != 0 {
		t.Fatalf("hashed %d then %d bytes, want the %d rewritten pages then none",
			m1.HashBytes, m2.HashBytes, same+changed)
	}
	if m1.PagesKept != pages-changed || m2.PagesKept != pages-changed || m1.PagesFull != changed {
		t.Errorf("kept %d then %d pages with %d full, want %d kept and %d full",
			m1.PagesKept, m2.PagesKept, m1.PagesFull, pages-changed, changed)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("the stream of a guest whose table missed %d unchanged pages (%d bytes) differs from its stream with the table complete (%d bytes)",
			same, len(first), len(second))
	}
}

// TestKeepRetryTiles: an attempt matched by name and cut in round one leaves
// a salvage image, which has no name; the retry offering the same root is
// announced, and its round one names every page again.
func TestKeepRetryTiles(t *testing.T) {
	const pages = 512
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	mirror, store := newStore(t), newStore(t)
	for _, s := range []*checkpoint.Store{mirror, store} {
		if err := s.Save(src); err != nil {
			t.Fatal(err)
		}
	}
	// Every fourth page rewritten: one-page full frames between kept runs,
	// so the cut lands after some of them have been installed.
	page := make([]byte, vm.PageSize)
	rng := rand.New(rand.NewSource(9))
	for p := 0; p < pages; p += 4 {
		rng.Read(page)
		src.WritePage(p, page)
	}
	sopts := SourceOptions{Recycle: true, Mirror: mirrorOf(t, mirror, "vm0")}
	cut, cutSrcErr, cutDstErr := cutMigration(t, src, newVM(t, "vm0", pages, 2), 100_000, sopts, DestOptions{Store: store})
	if cutSrcErr == nil || cutDstErr == nil || !cut.Salvage || cut.Metrics.PagesKept == 0 {
		t.Fatalf("cut attempt: source %v, destination %v, salvage=%v, %d kept; want a matched attempt cut after some pages landed",
			cutSrcErr, cutDstErr, cut.Salvage, cut.Metrics.PagesKept)
	}

	// Each side closes its end when it returns, so a refused stream ends the
	// test instead of leaving the source blocked on the pipe.
	a, b := net.Pipe()
	rc := &recordConn{Conn: a}
	dst := newVM(t, "vm0", pages, 3)
	var (
		wg         sync.WaitGroup
		sm         Metrics
		dres       DestResult
		serr, derr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		sm, serr = MigrateSource(context.Background(), rc, src, sopts)
		a.Close()
	}()
	go func() {
		defer wg.Done()
		dres, derr = MigrateDest(context.Background(), b, dst, DestOptions{Store: store, VerifyPayloads: true})
		b.Close()
	}()
	wg.Wait()
	if serr != nil || derr != nil {
		t.Fatalf("retry: source %v, destination %v", serr, derr)
	}
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if !dres.ResumedFromPartial || sm.AnnounceBytes == 0 {
		t.Fatalf("retry resumed=%v with a %d-byte announcement; want the salvage image announced", dres.ResumedFromPartial, sm.AnnounceBytes)
	}
	if sm.PagesKept != 0 || dres.Metrics.PagesKept != 0 {
		t.Errorf("the announced retry kept %d pages (destination %d), want 0", sm.PagesKept, dres.Metrics.PagesKept)
	}
	if end := roundOneEnd(t, rc.rec.Bytes(), HelloMsgBytes(len("vm0"))+checkpoint.RootSize); end != pages {
		t.Errorf("the retry's round one ends at page %d, want %d", end, pages)
	}
}
