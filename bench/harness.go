package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"vecycle/internal/checksum"
	"vecycle/internal/core"
	"vecycle/internal/netem"
	"vecycle/internal/sched"
	"vecycle/internal/vm"
)

// vmName is the one guest every workload migrates.
const vmName = "vm0"

// arrivalWait bounds how long a leg waits for OnArrival after MigrateTo has
// already succeeded; the destination's save is the only work left by then.
const arrivalWait = 60 * time.Second

// splitmix is the benchmark's seeded generator: guest content, the churn
// permutations and nothing else. It implements rand.Source64 so rand.Rand
// supplies Perm, and fills pages eight bytes a call (rand.Rand.Read yields
// seven per Int63 and would dominate set-up at 256 MiB).
type splitmix struct{ s uint64 }

func (r *splitmix) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
func (r *splitmix) Int63() int64    { return int64(r.Uint64() >> 1) }
func (r *splitmix) Seed(seed int64) { r.s = uint64(seed) }

func (r *splitmix) fillPage(p []byte) {
	for i := 0; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], r.Uint64())
	}
}

// linkSpec names the emulated path of a workload. Traffic always crosses
// the host's TCP loopback; a shaped link paces the source's writes.
type linkSpec struct {
	name   string
	shaped bool
	// shape carries the link's bandwidth and its full RTT as Latency: only
	// the source→destination direction is shaped, so that one direction
	// pays the whole cost of a protocol turn.
	shape netem.Link
}

func linkByName(name string) (linkSpec, error) {
	shaped := func(l netem.Link) (linkSpec, error) {
		return linkSpec{name, true, netem.Link{BytesPerSecond: l.BytesPerSecond, Latency: l.RTT()}}, nil
	}
	switch name {
	case "loopback":
		return linkSpec{name: name}, nil
	case "lan":
		return shaped(netem.LAN())
	case "wan":
		return shaped(netem.WAN())
	}
	return linkSpec{}, fmt.Errorf("bench: unknown link %q", name)
}

// wireStats counts one leg's traffic at the source's end of the connection.
type wireStats struct {
	sent, received atomic.Int64
	writes, turns  atomic.Int64
	wrote          atomic.Bool // last operation was a write
}

// countConn is the source-side connection wrapper: bytes both ways, write
// calls, and turns (a read that follows a write — the source stopped
// sending to wait for the peer).
type countConn struct {
	net.Conn
	st *wireStats
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.st.sent.Add(int64(n))
	c.st.writes.Add(1)
	c.st.wrote.Store(true)
	return n, err
}

func (c *countConn) Read(p []byte) (int, error) {
	if c.st.wrote.Swap(false) {
		c.st.turns.Add(1)
	}
	n, err := c.Conn.Read(p)
	c.st.received.Add(int64(n))
	return n, err
}

// arrival is what the destination's OnArrival hook hands back to the leg.
type arrival struct {
	v   *vm.VM
	res core.DestResult
	at  time.Time
}

// side is one host of the pair with its listener address.
type side struct {
	host *sched.Host
	addr string
	dir  string
}

// pair is two in-process hosts with real listeners, wired through the
// public sched.Host API only.
type pair struct {
	a, b     *side
	link     linkSpec
	wire     *wireStats   // reset by each leg
	arrivals chan arrival // capacity 1: one migration is in flight at a time
	root     string       // holds both stores; removed by close
}

// newPair creates both hosts with empty stores under a fresh directory of
// workdir and starts their listeners.
func newPair(workdir string, link linkSpec) (*pair, error) {
	root, err := os.MkdirTemp(workdir, "pair-")
	if err != nil {
		return nil, fmt.Errorf("bench: store directory: %w", err)
	}
	p := &pair{link: link, wire: &wireStats{}, arrivals: make(chan arrival, 1), root: root}
	for _, name := range []string{"a", "b"} {
		s, err := p.newSide(name, filepath.Join(root, name))
		if err != nil {
			p.close()
			return nil, err
		}
		if name == "a" {
			p.a = s
		} else {
			p.b = s
		}
	}
	return p, nil
}

func (p *pair) newSide(name, dir string) (*side, error) {
	h, err := sched.NewHost(name, dir)
	if err != nil {
		return nil, fmt.Errorf("bench: host %s: %w", name, err)
	}
	h.SaveArrivals = true
	h.OnArrival = func(v *vm.VM, res core.DestResult) {
		p.arrivals <- arrival{v: v, res: res, at: time.Now()}
	}
	h.DialFunc = p.dial
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, fmt.Errorf("bench: host %s: %w", name, err)
	}
	return &side{host: h, addr: addr, dir: dir}, nil
}

// dial is both hosts' DialFunc: TCP loopback with the product's default
// socket setting (no Nagle), shaped when the workload has a link, counted
// outermost so writes are the engine's own flushes.
func (p *pair) dial(ctx context.Context, addr string) (io.ReadWriteCloser, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bench: dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // best effort, as sched.Host.tuneConn does
	}
	if p.link.shaped {
		conn = netem.Shape(conn, p.link.shape)
	}
	return &countConn{Conn: conn, st: p.wire}, nil
}

func (p *pair) close() {
	for _, s := range []*side{p.a, p.b} {
		if s != nil {
			s.host.Close()
		}
	}
	os.RemoveAll(p.root)
	syncDir(filepath.Dir(p.root))
}

// syncDir commits a directory's pending deletions to the filesystem's
// journal. It is the second noise control: on the runner's ext4 a leg whose
// saves follow freshly unlinked store files (a closed pair's, a compacted
// segment's) writes a third faster than one that does not, which made
// cycle_time_s bimodal; committing the unlinks before the leg starts puts
// every leg on the same footing. Best effort: a filesystem that cannot sync
// a directory just keeps its noise.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		f.Close()
	}
}

// newGuest creates the workload's guest and fills every page with seeded
// random bytes, so no two pages of a guest share content.
func newGuest(rng *splitmix, memBytes int64) (*vm.VM, error) {
	v, err := vm.New(vm.Config{Name: vmName, MemBytes: memBytes, Seed: 1})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, vm.PageSize)
	for i := 0; i < v.NumPages(); i++ {
		rng.fillPage(buf)
		v.WritePage(i, buf)
	}
	return v, nil
}

// churn rewrites exactly k distinct pages of v with fresh random bytes: the
// first k entries of a seeded permutation. (vm.TouchRandomPages samples
// with replacement, so asking it for every page touches only ~63 % of them.)
func churn(v *vm.VM, rng *splitmix, k int) {
	buf := make([]byte, vm.PageSize)
	for _, page := range rand.New(rng).Perm(v.NumPages())[:k] {
		rng.fillPage(buf)
		v.WritePage(page, buf)
	}
}

// digests is the correctness oracle: one fast64 digest per page.
func digests(v *vm.VM) []checksum.Sum {
	return v.RangeSums(0, v.NumPages(), checksum.FAST64, nil)
}

// settle is the noise control run before every leg. The destination
// allocates the guest's RAM afresh on each arrival; allocating, touching and
// dropping a slab of that size first, then collecting, leaves resident
// memory on the heap for it, so a leg does not pay first-touch page faults
// for some arrivals and not for others.
func settle(memBytes int64) {
	slab := make([]byte, memBytes)
	for i := 0; i < len(slab); i += vm.PageSize {
		slab[i] = 1
	}
	runtime.KeepAlive(slab)
	slab = nil
	runtime.GC()
}

// cpuSeconds reports the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reports the process's resident-set high-water mark (the VmHWM
// of /proc/self/status; ru_maxrss is in KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// leg is one timed migration with everything the harness itself observed.
type leg struct {
	t0, paused, resumed, returned, arrived time.Time
	cpu                                    float64 // CPU seconds over the cycle interval
	src                                    core.Metrics
	dst                                    core.Metrics
	sent, received, writes, turns          int64
	attempts                               int
	reg                                    regCounters // what both hosts' registries counted over the leg
	allocBytes, gcPauseNs                  uint64      // allocator deltas, with legOptions.allocStats
	fail                                   string      // why the leg counts as failed; empty when it passed
	v                                      *vm.VM      // the arrived guest
}

// legOptions are the two things that vary between legs of one workload.
type legOptions struct {
	// allocStats brackets the timed interval with runtime.ReadMemStats (the
	// traced pass; each call stops the world briefly).
	allocStats bool
	// tamper sees the arrived guest before it is verified; the smoke test
	// corrupts a page through it.
	tamper func(*vm.VM)
}

func (l *leg) end() time.Time {
	if l.arrived.After(l.returned) {
		return l.arrived
	}
	return l.returned
}

func (l *leg) returnS() float64   { return l.resumed.Sub(l.t0).Seconds() }
func (l *leg) cycleS() float64    { return l.end().Sub(l.t0).Seconds() }
func (l *leg) downtimeS() float64 { return l.resumed.Sub(l.paused).Seconds() }
func (l *leg) wireBytes() int64   { return l.sent + l.received }

// migrate runs one leg from src to dst under the fixed product
// configuration and checks it.
func (p *pair) migrate(ctx context.Context, src, dst *side, lo legOptions) *leg {
	l := &leg{}
	v, ok := src.host.VM(vmName)
	if !ok {
		l.fail = fmt.Sprintf("%s is not resident on %s", vmName, src.host.Name())
		return l
	}
	want := digests(v)
	reg0 := p.counters()
	settle(v.MemBytes())
	p.wire = &wireStats{} // dial, called from MigrateTo on this goroutine, hands it to the conn

	opts := sched.MigrateOptions{
		Recycle:        true,
		KeepCheckpoint: true,
		Pause:          func() { l.paused = time.Now() },
		Resume:         func() { l.resumed = time.Now() },
		OnAttempt:      func(int, core.Metrics, error) { l.attempts++ },
	}
	var ms0, ms1 runtime.MemStats
	if lo.allocStats {
		runtime.ReadMemStats(&ms0)
	}
	cpu0 := cpuSeconds()
	l.t0 = time.Now()
	m, err := src.host.MigrateTo(ctx, dst.addr, vmName, opts)
	l.returned = time.Now()
	l.src = m
	if err != nil {
		l.fail = "MigrateTo: " + err.Error()
		return l
	}
	select {
	case arr := <-p.arrivals:
		l.arrived, l.v, l.dst = arr.at, arr.v, arr.res.Metrics
	case <-time.After(arrivalWait):
		l.fail = "the destination never reported the arrival"
		return l
	}
	l.cpu = cpuSeconds() - cpu0
	if lo.allocStats {
		runtime.ReadMemStats(&ms1)
		l.allocBytes, l.gcPauseNs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.PauseTotalNs-ms0.PauseTotalNs
	}
	l.sent, l.received = p.wire.sent.Load(), p.wire.received.Load()
	l.writes, l.turns = p.wire.writes.Load(), p.wire.turns.Load()

	if lo.tamper != nil {
		lo.tamper(l.v)
	}
	l.reg = p.counters().minus(reg0)
	switch got := digests(l.v); {
	case l.attempts != 1:
		l.fail = fmt.Sprintf("needed %d attempts", l.attempts)
	case l.reg.degraded != 0:
		l.fail = "a degradation was recorded"
	case len(got) != len(want):
		l.fail = fmt.Sprintf("arrived with %d pages, left with %d", len(got), len(want))
	case l.sent != m.BytesSent || l.received != m.BytesReceived:
		l.fail = fmt.Sprintf("wire counted %d+%d bytes, the engine %d+%d", l.sent, l.received, m.BytesSent, m.BytesReceived)
	default:
		for i := range want {
			if got[i] != want[i] {
				l.fail = fmt.Sprintf("page %d differs at the destination", i)
				break
			}
		}
	}
	return l
}
