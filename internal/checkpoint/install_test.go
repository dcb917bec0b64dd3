package checkpoint

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// injectedStore saves src into a store whose segment reads go through inj.
func injectedStore(t *testing.T, inj *faultfs.Injector, src *vm.VM) *Store {
	t.Helper()
	s, err := NewStoreFS(filepath.Join(t.TempDir(), "store"), inj.FS(faultfs.OS))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(src); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpanLoadBackgroundInstall: an index-only open plus InstallInto ends with
// the guest Restore would have produced — bytes and digest table — and until
// then AwaitFrames is the only thing that says a frame is safe to touch:
// concurrent waiters, each checking its frames the moment it is released,
// never see a page that is not the checkpoint's.
func TestSpanLoadBackgroundInstall(t *testing.T) {
	const pages = 5*restoreSpanPages + 17 // a short tail span
	src := filledVM(t, "vm0", pages, 1)
	inj := faultfs.NewInjector(faultfs.Fault{Op: faultfs.OpReadAt, Path: ".seg", Times: -1, Latency: 5 * time.Millisecond})
	s := injectedStore(t, inj, src)

	cp, err := s.Restore("vm0", ObjectAlgorithm, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if err := cp.AwaitFrames(0, pages); err != nil {
		t.Fatalf("AwaitFrames before any install: %v", err)
	}
	if err := cp.InstallInto(context.Background(), newVM(t, "vm0", pages-1, 2)); err == nil {
		t.Fatal("InstallInto accepted a guest of another size")
	}
	dst := newVM(t, "vm0", pages, 2)
	if err := cp.InstallInto(context.Background(), dst); err != nil {
		t.Fatal(err)
	}
	if err := cp.InstallInto(context.Background(), dst); err == nil {
		t.Error("a second InstallInto was accepted")
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got, want := make([]byte, vm.PageSize), make([]byte, vm.PageSize)
			// Descending and strided, so most waits are for spans not read yet.
			for start := pages - 1 - w*37; start >= 0; start -= 211 {
				count := min(300, pages-start) // crosses a span boundary
				if err := cp.AwaitFrames(start, count); err != nil {
					t.Errorf("AwaitFrames(%d, %d): %v", start, count, err)
					return
				}
				for _, p := range []int{start, start + count - 1} {
					src.ReadPage(p, want)
					dst.ReadPage(p, got)
					if string(got) != string(want) {
						t.Errorf("frame %d released before its span was installed", p)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := cp.Drain(); err != nil {
		t.Fatal(err)
	}
	if !src.MemEqual(dst) {
		t.Fatalf("installed guest differs at page %d", src.FirstDifference(dst))
	}
	want := src.RangeSums(0, pages, ObjectAlgorithm, nil)
	got, hashed := dst.Digests(0, pages, ObjectAlgorithm, nil)
	if hashed != 0 {
		t.Errorf("install left %d pages without a digest", hashed)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("digest table page %d = %s, want %s", i, got[i], want[i])
		}
	}
	var none *Checkpoint
	if none.AwaitFrames(0, 1) != nil || none.Drain() != nil {
		t.Error("a nil checkpoint has something to wait for")
	}
}

// TestSpanLoadReadFailure: a failed segment read stops the install, and both
// the wait for a span that will never come and Drain report it, with the
// injected errno still reachable.
func TestSpanLoadReadFailure(t *testing.T) {
	const pages = 8 * restoreSpanPages
	src := filledVM(t, "vm0", pages, 1)
	inj := faultfs.NewInjector()
	s := injectedStore(t, inj, src)
	inj.Arm(faultfs.Fault{Op: faultfs.OpReadAt, Path: ".seg", After: 3, Times: -1})

	// The eager form is the same reader, waited for.
	if _, err := s.Restore("vm0", ObjectAlgorithm, newVM(t, "vm0", pages, 2)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("eager restore: err = %v, want the injected EIO", err)
	}
	inj.Disarm()
	inj.Arm(faultfs.Fault{Op: faultfs.OpReadAt, Path: ".seg", After: 3, Times: -1})

	cp, err := s.Restore("vm0", ObjectAlgorithm, nil)
	if err != nil {
		t.Fatalf("index-only open read a page: %v", err)
	}
	defer cp.Close()
	if err := cp.InstallInto(context.Background(), newVM(t, "vm0", pages, 3)); err != nil {
		t.Fatal(err)
	}
	if err := cp.AwaitFrames(0, pages); !errors.Is(err, syscall.EIO) {
		t.Errorf("AwaitFrames over the whole guest: err = %v, want the injected EIO", err)
	}
	if err := cp.Drain(); !errors.Is(err, syscall.EIO) {
		t.Errorf("Drain: err = %v, want the injected EIO", err)
	}
}

// TestSpanLoadStops: cancelling the context, or closing the checkpoint, stops
// the readers at the next span; the waiters are released with an error, and no
// read is issued once Drain or Close has returned.
func TestSpanLoadStops(t *testing.T) {
	const spans = 16
	src := filledVM(t, "vm0", spans*restoreSpanPages, 1)
	for _, how := range []string{"cancel", "close"} {
		t.Run(how, func(t *testing.T) {
			inj := faultfs.NewInjector(faultfs.Fault{Op: faultfs.OpReadAt, Path: ".seg", Times: -1, Latency: 20 * time.Millisecond})
			s := injectedStore(t, inj, src)
			cp, err := s.Restore("vm0", ObjectAlgorithm, nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := cp.InstallInto(ctx, newVM(t, "vm0", spans*restoreSpanPages, 2)); err != nil {
				t.Fatal(err)
			}
			waited := make(chan error, 1)
			go func() { waited <- cp.AwaitFrames((spans-1)*restoreSpanPages, 1) }()
			if how == "cancel" {
				cancel()
				if err := cp.Drain(); !errors.Is(err, context.Canceled) {
					t.Errorf("Drain after cancel: err = %v, want context.Canceled", err)
				}
			} else if err := cp.Close(); err != nil {
				t.Fatal(err)
			}
			reads := len(inj.Shots())
			if err := <-waited; err == nil {
				t.Error("a waiter for the last span was released without an error")
			}
			if reads >= spans {
				t.Fatalf("all %d spans were read; nothing was stopped", reads)
			}
			time.Sleep(60 * time.Millisecond)
			if late := len(inj.Shots()) - reads; late != 0 {
				t.Errorf("%d reads were issued after the install was stopped", late)
			}
			if how == "cancel" {
				cp.Close()
			}
		})
	}
}
