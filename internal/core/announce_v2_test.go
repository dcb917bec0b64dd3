package core

import (
	"fmt"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// TestAnnounceVersionInterop runs a recycled migration across the four
// combinations of compact-announce support. The capability is negotiated in
// the hello exchange: the v2 encoding is only on the wire when both ends
// opted in, any other pairing degrades to the v1 byte stream, and every
// combination migrates correctly.
func TestAnnounceVersionInterop(t *testing.T) {
	const pages = 128
	cases := []struct {
		name            string
		srcOld, dstOld  bool
		wantV2OnTheWire bool
	}{
		{"both-v2", false, false, true},
		{"old-source", true, false, false},
		{"old-dest", false, true, false},
		{"both-old", true, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(0.95); err != nil {
				t.Fatal(err)
			}
			store := newStore(t)
			if err := store.Save(src); err != nil {
				t.Fatal(err)
			}
			dst := newVM(t, "vm0", pages, 2)
			sm, dres := migrate(t, src, dst,
				SourceOptions{Recycle: true, NoCompactAnnounce: tc.srcOld},
				DestOptions{Store: store, VerifyPayloads: true, NoCompactAnnounce: tc.dstOld})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			if !dres.UsedCheckpoint {
				t.Fatal("checkpoint not used")
			}
			if sm.PagesSum != pages {
				t.Errorf("PagesSum = %d, want %d", sm.PagesSum, pages)
			}

			// Both sides account the announcement's v1-equivalent size, so
			// compaction savings are observable regardless of the encoding
			// actually negotiated. Duplicate pages dedupe in the set, so the
			// size is bounded by — not equal to — the page count's.
			rawLen := dres.Metrics.AnnounceRawBytes
			if rawLen <= 0 || rawLen > int64(checksum.EncodedSize(pages)) {
				t.Fatalf("dest AnnounceRawBytes = %d, want in (0, %d]", rawLen, checksum.EncodedSize(pages))
			}
			if sm.AnnounceRawBytes != rawLen {
				t.Errorf("source AnnounceRawBytes = %d, dest accounted %d", sm.AnnounceRawBytes, rawLen)
			}

			// The destination's AnnounceBytes covers tag + frame exactly as
			// emitted; the v1 encoding is pinned to 1+EncodedSize, so any
			// other figure means the compact frame was on the wire.
			v1Wire := 1 + rawLen
			if tc.wantV2OnTheWire {
				if dres.Metrics.AnnounceBytes == v1Wire {
					t.Errorf("AnnounceBytes = %d matches the v1 encoding; compact frame not used", dres.Metrics.AnnounceBytes)
				}
				// The compact encoder never loses more than its fixed header.
				if dres.Metrics.AnnounceBytes > v1Wire+5 {
					t.Errorf("AnnounceBytes = %d, want <= v1 wire size + 5 (%d)", dres.Metrics.AnnounceBytes, v1Wire+5)
				}
			} else if dres.Metrics.AnnounceBytes != v1Wire {
				t.Errorf("AnnounceBytes = %d, want exact v1 wire size %d", dres.Metrics.AnnounceBytes, v1Wire)
			}
		})
	}
}

// TestAnnounceBytesAgree pins the source's announcement accounting to the
// destination's: both count the frame from its tag byte to its last body
// byte. The source used to read its transport counter after the 64 KiB
// control reader had already pulled in whatever arrived with the hello-ack,
// so a 16 MiB guest's announcement (64 KiB in v1) counted as almost nothing.
func TestAnnounceBytesAgree(t *testing.T) {
	for _, mib := range []int{16, 256} {
		for _, v1 := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dMiB/v1=%v", mib, v1), func(t *testing.T) {
				if mib > 16 && (raceEnabled || testing.Short()) {
					t.Skip("the 256 MiB guest is too slow under -race / -short")
				}
				pages := mib << 20 / vm.PageSize
				src := newVM(t, "vm0", pages, 1)
				if err := src.FillRandom(1.0); err != nil {
					t.Fatal(err)
				}
				store := newStore(t)
				if err := store.Save(src); err != nil {
					t.Fatal(err)
				}
				dst := newVM(t, "vm0", pages, 2)
				sm, dres := migrate(t, src, dst,
					SourceOptions{Recycle: true, NoCompactAnnounce: v1},
					DestOptions{Store: store})
				if sm.AnnounceBytes != dres.Metrics.AnnounceBytes {
					t.Errorf("source counted a %d-byte announcement, destination %d",
						sm.AnnounceBytes, dres.Metrics.AnnounceBytes)
				}
				// An all-distinct guest announces one sum per page.
				if floor := int64(pages) * checksum.Size / 2; sm.AnnounceBytes < floor {
					t.Errorf("announcement of %d sums counted as %d bytes", pages, sm.AnnounceBytes)
				}
			})
		}
	}
}
