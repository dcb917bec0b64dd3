package core

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// turnConn counts one endpoint's writes to the transport and its turns: reads
// that follow a write, the points where it stopped sending to wait for the
// peer.
type turnConn struct {
	io.ReadWriter
	writes, turns atomic.Int64
	wrote         atomic.Bool
}

func (c *turnConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.wrote.Store(true)
	return c.ReadWriter.Write(p)
}

func (c *turnConn) Read(p []byte) (int, error) {
	if c.wrote.Swap(false) {
		c.turns.Add(1)
	}
	return c.ReadWriter.Read(p)
}

// tcpPair returns both ends of a loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		a.Close()
		t.Fatal(acc.err)
	}
	t.Cleanup(func() { a.Close(); acc.c.Close() })
	return a, acc.c
}

// pipePair returns both ends of an in-memory connection.
func pipePair(t *testing.T) (net.Conn, net.Conn) {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestSourceWritesPerTurn pins the writes each endpoint hands the transport.
// A pre-copy source flushes after the hello, after each live round's
// round-end, and after done: the final round and done leave in one write, so
// the paused guest waits on one write however many rounds ran live. A
// post-copy destination sends done with its last window of page requests.
// Over net.Pipe every flush is one Write, and a data batch larger than the
// 1 MiB buffer goes out as one direct Write of its own.
func TestSourceWritesPerTurn(t *testing.T) {
	t.Run("idle-by-name", func(t *testing.T) {
		// A ping-pong return of a guest that did not run: round one is 64
		// range-sum pages, well inside the buffer, and the final round empty.
		vmA := newVM(t, "vm0", 64, 1)
		if err := vmA.FillRandom(0.9); err != nil {
			t.Fatal(err)
		}
		storeA, storeB := newStore(t), newStore(t)
		if err := storeA.Save(vmA); err != nil {
			t.Fatal(err)
		}
		vmB := newVM(t, "vm0", 64, 2)
		migrate(t, vmA, vmB, SourceOptions{Recycle: true},
			DestOptions{Store: storeB})
		if err := storeB.Save(vmB); err != nil {
			t.Fatal(err)
		}
		a, b := pipePair(t)
		tc := &turnConn{ReadWriter: a}
		sm, _ := migrateOver(t, tc, b, vmB, newVM(t, "vm0", 64, 3),
			SourceOptions{Recycle: true, Mirror: mirrorOf(t, storeB, "vm0")},
			DestOptions{Store: storeA})
		if sm.PagesSum != 64 || sm.AnnounceBytes != 0 {
			t.Fatalf("not an idle by-name return: %d sums, %d announce bytes", sm.PagesSum, sm.AnnounceBytes)
		}
		// hello, round one, final round + done.
		if w, n := tc.writes.Load(), tc.turns.Load(); w != 3 || n != 2 {
			t.Errorf("%d writes, %d turns; want 3 writes, 2 turns", w, n)
		}
	})

	t.Run("cold", func(t *testing.T) {
		// Each 256-page batch of random pages is one range-full frame larger
		// than the buffer, written directly; round one's round-end follows
		// alone.
		const batches = 4
		src := newVM(t, "vm0", batches*batchPages, 1)
		if err := src.FillRandom(1); err != nil {
			t.Fatal(err)
		}
		if RangeFullMsgBytes(batchPages) <= dataBufBytes {
			t.Fatalf("a full batch (%d B) fits the %d B buffer", RangeFullMsgBytes(batchPages), dataBufBytes)
		}
		a, b := pipePair(t)
		tc := &turnConn{ReadWriter: a}
		sm, _ := migrateOver(t, tc, b, src, newVM(t, "vm0", batches*batchPages, 2),
			SourceOptions{}, DestOptions{})
		if sm.Rounds != 2 {
			t.Fatalf("%d rounds, want 2", sm.Rounds)
		}
		// hello, the batches, round one's round-end, final round + done.
		if w, n := tc.writes.Load(), tc.turns.Load(); w != batches+3 || n != 2 {
			t.Errorf("%d writes, %d turns; want %d writes, 2 turns", w, n, batches+3)
		}
	})

	t.Run("live", func(t *testing.T) {
		// The guest rewrites its first 32 pages until the pause, so every
		// live round has dirty pages and the final round carries at most 32
		// full pages: it and done fit the buffer, one write.
		const hot = 32
		src := newVM(t, "vm0", 256, 1)
		if err := src.FillRandom(1); err != nil {
			t.Fatal(err)
		}
		if RangeFullMsgBytes(hot)+RoundEndMsgBytes+DoneMsgBytes > dataBufBytes {
			t.Fatal("the final round does not fit the buffer")
		}
		stop := make(chan struct{})
		var (
			guest sync.WaitGroup
			once  sync.Once
		)
		halt := func() {
			once.Do(func() { close(stop) })
			guest.Wait()
		}
		defer halt()
		guest.Add(1)
		go func() {
			defer guest.Done()
			page := make([]byte, vm.PageSize)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				page[0] = byte(i)
				src.WritePage(i%hot, page)
			}
		}()
		a, b := pipePair(t)
		tc := &turnConn{ReadWriter: a}
		var atPause int64
		dst := newVM(t, "vm0", 256, 2)
		sm, _ := migrateOver(t, tc, b, src, dst,
			SourceOptions{MaxRounds: 4, StopThreshold: 1, Pause: func() {
				halt()
				atPause = tc.writes.Load()
			}}, DestOptions{})
		if !src.MemEqual(dst) {
			t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
		}
		if sm.Rounds < 3 {
			t.Logf("only %d rounds ran", sm.Rounds)
		}
		if after := tc.writes.Load() - atPause; after != 1 {
			t.Errorf("%d source writes after the pause, want 1", after)
		}
		if n := tc.turns.Load(); n != 2 {
			t.Errorf("%d turns, want 2", n)
		}
	})

	t.Run("postcopy-dest", func(t *testing.T) {
		// hello-ack, then one write per window of requests, done riding the
		// last; with nothing missing, done goes alone.
		for _, tc := range []struct {
			name      string
			pages     int
			stored    bool
			wantFetch int
			wantWrite int64
		}{
			{"missing-300", 300, false, 300, 3},
			{"missing-0", 64, true, 0, 2},
		} {
			t.Run(tc.name, func(t *testing.T) {
				src := newVM(t, "vm0", tc.pages, 1)
				if err := src.FillRandom(1); err != nil {
					t.Fatal(err)
				}
				var store *checkpoint.Store
				if tc.stored {
					store = newStore(t)
					if err := store.Save(src); err != nil {
						t.Fatal(err)
					}
				}
				a, b := pipePair(t)
				dc := &turnConn{ReadWriter: b}
				dst := newVM(t, "vm0", tc.pages, 2)
				_, dres := postcopyOver(t, a, dc, src, dst, PostCopySourceOptions{}, PostCopyDestOptions{Store: store})
				if !src.MemEqual(dst) {
					t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
				}
				if dres.Metrics.PagesRequested != tc.wantFetch {
					t.Fatalf("fetched %d pages, want %d", dres.Metrics.PagesRequested, tc.wantFetch)
				}
				if w := dc.writes.Load(); w != tc.wantWrite {
					t.Errorf("%d destination writes, want %d", w, tc.wantWrite)
				}
			})
		}
	})
}

// TestRoundEventBytes checks that both ends report each round's bytes as the
// round's own frames and round-end — the source what it encoded, buffered or
// not, the destination what it decoded, not what its reader fetched ahead —
// over net.Pipe and over TCP, where reads straddle round boundaries. The
// guest writes between rounds one and two and between two and three, and
// nothing is recycled, so every page of a round crosses in full.
func TestRoundEventBytes(t *testing.T) {
	for _, tr := range []struct {
		name string
		pair func(*testing.T) (net.Conn, net.Conn)
	}{{"pipe", pipePair}, {"tcp", tcpPair}} {
		t.Run(tr.name, func(t *testing.T) {
			const pages = 2 * batchPages
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(1); err != nil {
				t.Fatal(err)
			}
			// Round two resends ten pages in four runs; round three, the
			// final one, three pages in two.
			rewrite := map[int][]int{
				1: {3, 4, 5, 100, 101, 300, 301, 302, 303, 511},
				2: {7, 8, 400},
			}
			page := make([]byte, vm.PageSize)
			var srcRounds, dstRounds []Event
			a, b := tr.pair(t)
			dst := newVM(t, "vm0", pages, 2)
			migrateOver(t, a, b, src, dst,
				SourceOptions{MaxRounds: 4, StopThreshold: 4, OnEvent: func(e Event) {
					if e.Kind != EventRound {
						return
					}
					srcRounds = append(srcRounds, e)
					for _, p := range rewrite[e.Round] {
						page[0]++
						src.WritePage(p, page)
					}
				}},
				DestOptions{OnEvent: func(e Event) {
					if e.Kind == EventRound {
						dstRounds = append(dstRounds, e)
					}
				}})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			if len(srcRounds) != 3 || len(dstRounds) != 3 {
				t.Fatalf("%d source and %d destination rounds, want 3", len(srcRounds), len(dstRounds))
			}
			for i, s := range srcRounds {
				d := dstRounds[i]
				want := RangeHeaderBytes*s.Frames + (checksum.Size+vm.PageSize)*s.Pages + RoundEndMsgBytes
				if s.Bytes != want || d.Bytes != want {
					t.Errorf("round %d (%d pages, %d frames): source %d B, destination %d B, want %d",
						s.Round, s.Pages, s.Frames, s.Bytes, d.Bytes, want)
				}
				if d.Frames != s.Frames {
					t.Errorf("round %d: source %d frames, destination %d", s.Round, s.Frames, d.Frames)
				}
			}
		})
	}
}
