package core

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"

	"vecycle/internal/checksum"
)

// TestAcceptNeverPanicsOnGarbage feeds random byte streams to the accept
// path: a hostile or corrupted peer must produce an error, never a panic
// or a runaway allocation.
func TestAcceptNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(256)
		raw := make([]byte, n)
		rng.Read(raw)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("input %d (%x): panic %v", i, raw, r)
				}
			}()
			s, err := Accept(context.Background(), readWriter{bytes.NewReader(raw), io.Discard})
			if err != nil {
				return // expected for almost every input
			}
			// An accidentally-valid hello: Run against a VM must still
			// terminate with an error (the stream is exhausted).
			v := newVM(t, s.VMName(), 4, 1)
			if s.MemBytes() == int64(4*4096) {
				_, _ = s.Run(context.Background(), v, DestOptions{})
			}
		}()
	}
}

// TestDestGarbageAfterValidHello fuzzes the merge loop: a well-formed
// hello followed by random bytes.
func TestDestGarbageAfterValidHello(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		var stream bytes.Buffer
		h := hello{
			Version:   ProtocolVersion,
			VMName:    "vm0",
			PageSize:  4096,
			PageCount: 4,
			Alg:       uint8(checksum.Default),
		}
		if err := writeHello(&stream, h); err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, rng.Intn(512))
		rng.Read(junk)
		stream.Write(junk)

		dst := newVM(t, "vm0", 4, int64(i))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("iteration %d: panic %v", i, r)
				}
			}()
			if _, err := MigrateDest(context.Background(), readWriter{&stream, io.Discard}, dst, DestOptions{}); err == nil {
				t.Errorf("iteration %d: garbage stream accepted", i)
			}
		}()
	}
}

// TestSourceGarbageResponses fuzzes the source against random hello-ack
// and announcement bytes.
func TestSourceGarbageResponses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		junk := make([]byte, rng.Intn(256))
		rng.Read(junk)
		src := newVM(t, "vm0", 4, int64(i))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("iteration %d: panic %v", i, r)
				}
			}()
			// The writer is unbounded (io.Discard); only reads can fail.
			_, _ = MigrateSource(context.Background(), readWriter{bytes.NewReader(junk), io.Discard}, src,
				SourceOptions{Recycle: true})
		}()
	}
}
