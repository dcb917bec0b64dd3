package sched

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"vecycle/internal/checksum"
	"vecycle/internal/core"
	"vecycle/internal/vm"
)

// versionOneConn turns the first frame a source writes, its hello, into the
// hello a version-1 source sends: version field 1, and the capability offers
// (flag bit 3 for the compact announcement, bit 4 for range frames) it made.
type versionOneConn struct {
	io.ReadWriteCloser
	t       *testing.T
	offers  byte
	patched bool
}

func (c *versionOneConn) Write(p []byte) (int, error) {
	if !c.patched {
		c.patched = true
		// tag · version u16 · name-len u16 · name · page-size u32 ·
		// page-count u64 · alg u8 · flags u8
		if len(p) < 5 || p[0] != 1 {
			c.t.Errorf("first write % x is not a hello", p)
		} else if flags := 5 + int(binary.LittleEndian.Uint16(p[3:5])) + 4 + 8 + 1; flags >= len(p) {
			c.t.Errorf("first write of %d bytes does not hold the whole hello", len(p))
		} else {
			p = append([]byte(nil), p...)
			binary.LittleEndian.PutUint16(p[1:3], 1)
			p[flags] |= c.offers
		}
	}
	return c.ReadWriteCloser.Write(p)
}

// refuseVersionOne: a version-1 source offering the given capabilities and
// reaching a host over TCP is refused at the hello, not negotiated with. It
// reads a hello-ack that names both versions, so its migration fails as a
// rejection on the first attempt, not as a dropped connection to retry; and
// the destination registers no arrival.
func refuseVersionOne(t *testing.T, offers byte) {
	t.Helper()
	alpha := newHost(t, "alpha")
	beta := newHost(t, "beta")
	addrB := listen(t, beta)
	beta.OnArrival = func(*vm.VM, core.DestResult) { t.Error("a version-1 hello arrived") }
	handled := make(chan error, 1)
	beta.OnError = func(err error) {
		select {
		case handled <- err:
		default:
		}
	}

	v := newGuest(t, "vm0", 64)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	alpha.AddVM(v)
	alpha.DialFunc = func(ctx context.Context, addr string) (io.ReadWriteCloser, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return &versionOneConn{ReadWriteCloser: conn, t: t, offers: offers}, nil
	}

	attempts := 0
	_, err := alpha.MigrateTo(context.Background(), addrB, "vm0", MigrateOptions{
		Recycle:        true,
		KeepCheckpoint: true,
		Retry:          RetryPolicy{Attempts: 3},
		OnAttempt:      func(int, core.Metrics, error) { attempts++ },
	})
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("migration error = %v, want core.ErrRejected", err)
	}
	want := fmt.Sprintf("protocol version 1 unsupported (want %d)", core.ProtocolVersion)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("rejection %q does not say %q", err, want)
	}
	if attempts != 1 {
		t.Errorf("ran %d attempts, want 1", attempts)
	}
	if _, ok := alpha.VM("vm0"); !ok {
		t.Error("the source gave up its VM after a rejection")
	}

	select {
	case herr := <-handled:
		if !errors.Is(herr, core.ErrRejected) {
			t.Errorf("destination handler error = %v, want core.ErrRejected", herr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the destination never finished the handshake")
	}
	if _, ok := beta.VM("vm0"); ok {
		t.Error("the destination registered the VM")
	}
	if m := scrape(t, beta); !strings.Contains(m, `vecycle_migrations_total{host="beta",role="dest",outcome="rejected"} 1`) {
		t.Errorf("destination did not count one rejected arrival:\n%s", m)
	}
}

// arrival waits for the next DestResult a host's OnArrival sends on ch.
func arrival(t *testing.T, ch <-chan core.DestResult) core.DestResult {
	t.Helper()
	select {
	case res := <-ch:
		return res
	case <-time.After(5 * time.Second):
		t.Fatal("destination never reported the arrival")
		return core.DestResult{}
	}
}

// TestMixedVersionAnnounceOverTCP: version 1 negotiated a compact
// announcement; version 2 has the raw one only. A version-1 source offering
// the compact announcement is refused at the hello. Between two hosts of this
// version, a return leg to a host holding the departure checkpoint (the
// other end saved no arrival, so there is no name to match) announces that
// checkpoint's distinct sums over TCP, counted exactly on both sides, and the
// guest's memory survives byte-for-byte.
func TestMixedVersionAnnounceOverTCP(t *testing.T) {
	refuseVersionOne(t, 8)

	alpha := newHost(t, "alpha")
	beta := newHost(t, "beta")
	addrA := listen(t, alpha)
	addrB := listen(t, beta)
	atAlpha, atBeta := make(chan core.DestResult, 1), make(chan core.DestResult, 1)
	alpha.OnArrival = func(_ *vm.VM, res core.DestResult) { atAlpha <- res }
	beta.OnArrival = func(_ *vm.VM, res core.DestResult) { atBeta <- res }

	const pages = 64
	v := newGuest(t, "vm0", pages)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	alpha.AddVM(v)
	distinct := checksum.NewSet(pages)
	distinct.AddAll(v.RangeSums(0, pages, checksum.Default, nil))
	want := int64(core.AnnounceMsgBytes(distinct.Len()))

	opts := MigrateOptions{Recycle: true, KeepCheckpoint: true}
	if _, err := alpha.MigrateTo(context.Background(), addrB, "vm0", opts); err != nil {
		t.Fatal(err)
	}
	arrival(t, atBeta)
	vb, _ := beta.VM("vm0")
	vb.TouchRandomPages(3)
	guest := vb.Fingerprint64()
	m, err := beta.MigrateTo(context.Background(), addrA, "vm0", opts)
	if err != nil {
		t.Fatal(err)
	}
	res := arrival(t, atAlpha)

	if m.AnnounceBytes != want || res.Metrics.AnnounceBytes != want {
		t.Errorf("announcement of %d sums counted as %d bytes at the source, %d at the destination; want %d",
			distinct.Len(), m.AnnounceBytes, res.Metrics.AnnounceBytes, want)
	}
	if m.PagesSum == 0 {
		t.Error("return leg recycled nothing")
	}
	landed, _ := alpha.VM("vm0")
	fingerprintEqual(t, guest, landed)
}

// TestMixedVersionRangeFramesOverTCP: version 1 negotiated range frames;
// version 2 always sends them. A version-1 source offering range frames is
// refused at the hello. Between two hosts of this version, a cold leg over
// TCP coalesces its full-page runs into range frames, the destination decodes
// every one the source sent, and the guest's memory survives byte-for-byte.
func TestMixedVersionRangeFramesOverTCP(t *testing.T) {
	refuseVersionOne(t, 16)

	alpha := newHost(t, "alpha")
	beta := newHost(t, "beta")
	addrB := listen(t, beta)
	atBeta := make(chan core.DestResult, 1)
	beta.OnArrival = func(_ *vm.VM, res core.DestResult) { atBeta <- res }

	// 600 pages of mixed content: long full-page runs to coalesce.
	v := newGuest(t, "vm0", 600)
	if err := v.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	alpha.AddVM(v)
	guest := v.Fingerprint64()

	m, err := alpha.MigrateTo(context.Background(), addrB, "vm0", MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := arrival(t, atBeta)

	if m.RangeFrames == 0 {
		t.Error("the cold leg sent no range frames")
	}
	if res.Metrics.RangeFrames != m.RangeFrames {
		t.Errorf("dest decoded %d range frames, source sent %d", res.Metrics.RangeFrames, m.RangeFrames)
	}
	landed, _ := beta.VM("vm0")
	fingerprintEqual(t, guest, landed)
}
