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

// helloRewrite describes the hello another source sends, as a rewrite of the
// first frame this one writes: an older version field, and for version 1 the
// capability offers (flag bit 3 for the compact announcement, bit 4 for range
// frames) it made, for version 3 its post-copy mode (flag bit 2); or another
// checksum algorithm byte. The pre-copy hellos of versions 2, 3 and 4 were
// this version's with another number. A zero field keeps this source's value.
type helloRewrite struct {
	version uint16
	offers  byte
	alg     checksum.Algorithm
}

// reason is the refusal the destination's hello-ack must carry, naming both
// values.
func (rw helloRewrite) reason() string {
	if rw.version != 0 {
		return fmt.Sprintf("protocol version %d unsupported (want %d)", rw.version, core.ProtocolVersion)
	}
	return fmt.Sprintf("checksum algorithm %v unsupported (want %v)", rw.alg, checksum.Default)
}

// rewrittenHelloConn applies a helloRewrite to the first frame written.
type rewrittenHelloConn struct {
	io.ReadWriteCloser
	t       *testing.T
	rw      helloRewrite
	patched bool
}

func (c *rewrittenHelloConn) Write(p []byte) (int, error) {
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
			if c.rw.version != 0 {
				binary.LittleEndian.PutUint16(p[1:3], c.rw.version)
			}
			if c.rw.alg != 0 {
				p[flags-1] = byte(c.rw.alg)
			}
			p[flags] |= c.rw.offers
		}
	}
	return c.ReadWriteCloser.Write(p)
}

// refuseHello: a source sending the rewritten hello — of an older protocol
// version, or under another checksum algorithm — and reaching a host over TCP
// is refused at the hello, not negotiated with. It reads a hello-ack naming
// both values, so its migration fails as a rejection on the first attempt, not
// as a dropped connection to retry; and the destination registers no arrival
// and leaves its store untouched.
func refuseHello(t *testing.T, rw helloRewrite) {
	t.Helper()
	alpha := newHost(t, "alpha")
	beta := newHost(t, "beta")
	addrB := listen(t, beta)
	beta.OnArrival = func(*vm.VM, core.DestResult) { t.Errorf("a rewritten hello %+v arrived", rw) }
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
		return &rewrittenHelloConn{ReadWriteCloser: conn, t: t, rw: rw}, nil
	}
	stored := beta.Store().Stats()

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
	if want := rw.reason(); !strings.Contains(err.Error(), want) {
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
	if names, _ := beta.Store().List(); len(names) != 0 || beta.Store().Stats() != stored {
		t.Errorf("the refused hello touched the destination's store: entries %v, stats %+v → %+v", names, stored, beta.Store().Stats())
	}
	if m := scrape(t, beta); !strings.Contains(m, `vecycle_migrations_total{host="beta",role="dest",outcome="rejected"} 1`) {
		t.Errorf("destination did not count one rejected arrival:\n%s", m)
	}
}

// TestForeignAlgorithmRefusedOverTCP: a page has one digest, so a source
// whose hello names another checksum algorithm — the paper's MD5 — is refused
// with a reason naming both, exactly like a source of another version.
func TestForeignAlgorithmRefusedOverTCP(t *testing.T) {
	refuseHello(t, helloRewrite{alg: checksum.MD5})
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
// announcement; versions 2 to 4 have the raw one only. A version-1 source
// offering the compact announcement is refused at the hello. Between two
// hosts of this version, a return leg to a host holding the departure
// checkpoint (the other end saved no arrival, so there is no name to match)
// announces that checkpoint's distinct sums over TCP, counted exactly on both
// sides, and the guest's memory survives byte-for-byte.
func TestMixedVersionAnnounceOverTCP(t *testing.T) {
	refuseHello(t, helloRewrite{version: 1, offers: 8})

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
// version 2 always sent runs in them but a lone page in its per-page frame;
// versions 3 on send every page in a range frame, version 3 also spoke
// post-copy, and version 4 also had deflated and delta range frames. A
// version-1 source offering range frames, a version-2 source, a version-3
// source, pre-copy or post-copy, and a version-4 source are refused at the
// hello, by their version. Between two
// hosts of this version, a cold leg over TCP coalesces its full-page runs into
// range frames, the destination decodes every one the source sent, and the
// guest's memory survives byte-for-byte.
func TestMixedVersionRangeFramesOverTCP(t *testing.T) {
	refuseHello(t, helloRewrite{version: 1, offers: 16})
	refuseHello(t, helloRewrite{version: 2})
	refuseHello(t, helloRewrite{version: 3})
	refuseHello(t, helloRewrite{version: 3, offers: 4})
	refuseHello(t, helloRewrite{version: 4})

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
