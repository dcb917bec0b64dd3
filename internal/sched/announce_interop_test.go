package sched

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"vecycle/internal/core"
	"vecycle/internal/vm"
)

// TestMixedVersionAnnounceOverTCP drives the host-level compact-announce
// negotiation across real TCP in all four support pairings. A first leg
// seeds a checkpoint at the destination; the second leg of the same VM then
// triggers the announcement. Every pairing must migrate correctly — an old
// peer on either side silently degrades to the v1 encoding — and the VM's
// memory must survive each leg byte-for-byte.
func TestMixedVersionAnnounceOverTCP(t *testing.T) {
	cases := []struct {
		name           string
		srcOld, dstOld bool
	}{
		{"both-v2", false, false},
		{"old-source", true, false},
		{"old-dest", false, true},
		{"both-old", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			alpha := newHost(t, "alpha")
			beta := newHost(t, "beta")
			beta.NoCompactAnnounce = tc.dstOld
			addrB := listen(t, beta)
			addrA := listen(t, alpha)

			v := newGuest(t, "vm0", 64)
			if err := v.FillRandom(0.9); err != nil {
				t.Fatal(err)
			}
			alpha.AddVM(v)

			wait := func(h *Host) {
				t.Helper()
				deadline := time.Now().Add(5 * time.Second)
				for {
					if _, ok := h.VM("vm0"); ok {
						return
					}
					if time.Now().After(deadline) {
						t.Fatal("VM never arrived")
					}
					time.Sleep(time.Millisecond)
				}
			}
			opts := func() MigrateOptions {
				return MigrateOptions{
					Recycle:           true,
					KeepCheckpoint:    true,
					NoCompactAnnounce: tc.srcOld,
				}
			}

			// The announcement is sent by the destination; its accounting is
			// exact (the source's read-side figure depends on transport
			// buffering). Capture the return leg's DestResult at alpha.
			arrived := make(chan core.DestResult, 1)
			alpha.OnArrival = func(_ *vm.VM, res core.DestResult) { arrived <- res }

			// Leg 1 seeds beta's checkpoint; leg 2 (beta → alpha, alpha now
			// holding a checkpoint from the departure save) announces.
			if _, err := alpha.MigrateTo(context.Background(), addrB, "vm0", opts()); err != nil {
				t.Fatal(err)
			}
			wait(beta)
			vb, _ := beta.VM("vm0")
			vb.TouchRandomPages(3)
			want := vb.Fingerprint64()
			// alpha is now the destination: its NoCompactAnnounce models the
			// old-dest pairing on the return leg.
			alpha.NoCompactAnnounce = tc.dstOld
			m, err := beta.MigrateTo(context.Background(), addrA, "vm0", opts())
			if err != nil {
				t.Fatal(err)
			}
			wait(alpha)
			var res core.DestResult
			select {
			case res = <-arrived:
			case <-time.After(5 * time.Second):
				t.Fatal("destination never reported the arrival")
			}

			dm := res.Metrics
			if dm.AnnounceBytes == 0 || dm.AnnounceRawBytes == 0 {
				t.Fatalf("return leg sent no announcement (bytes=%d raw=%d); checkpoint path not exercised",
					dm.AnnounceBytes, dm.AnnounceRawBytes)
			}
			v1Wire := dm.AnnounceRawBytes + 1 // tag byte + v1 body
			if tc.srcOld || tc.dstOld {
				if dm.AnnounceBytes != v1Wire {
					t.Errorf("%s: AnnounceBytes = %d, want exact v1 wire size %d", tc.name, dm.AnnounceBytes, v1Wire)
				}
			} else if dm.AnnounceBytes > v1Wire+5 {
				t.Errorf("negotiated v2 announce cost %d bytes, v1 wire size is %d", dm.AnnounceBytes, v1Wire)
			}
			if m.PagesSum == 0 {
				t.Error("return leg recycled nothing")
			}
			landed, _ := alpha.VM("vm0")
			got := landed.Fingerprint64()
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("page %d differs after %s migration", i, tc.name)
				}
			}
		})
	}
}

// TestHostsWriteNoIndexFiles: the page manifest is the fingerprint index, so
// neither a departure checkpoint nor an arrival save leaves a separate index
// file next to it.
func TestHostsWriteNoIndexFiles(t *testing.T) {
	alpha := newHost(t, "alpha")
	beta := newHost(t, "beta")
	beta.SaveArrivals = true
	addrB := listen(t, beta)

	v := newGuest(t, "vm0", 32)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	alpha.AddVM(v)
	if _, err := alpha.MigrateTo(context.Background(), addrB, "vm0", MigrateOptions{
		Recycle: true, KeepCheckpoint: true,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := beta.VM("vm0"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("VM never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	for _, h := range []*Host{alpha, beta} {
		if !h.Store().Has("vm0") {
			t.Fatalf("host %s kept no checkpoint", h.Name())
		}
		idx, err := filepath.Glob(filepath.Join(h.Store().Dir(), "*.idx"))
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) != 0 {
			t.Errorf("host %s wrote index files: %v", h.Name(), idx)
		}
	}
}
