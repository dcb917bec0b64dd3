package vm

import (
	"fmt"
	"math/rand"
)

// Guest workloads reproducing the benchmark setups of §4.4 and §4.5.

// FillRandom implements the best-case preparation of §4.4: "the VM executes
// a program which allocates 95% of the total memory and writes random data
// to it". frac selects the portion of memory filled (0.95 in the paper);
// the remainder stays zero. Filled pages receive unique random bytes.
func (v *VM) FillRandom(frac float64) error {
	if frac < 0 || frac > 1 {
		return fmt.Errorf("vm: fill fraction %v out of [0,1]", frac)
	}
	pages := int(frac * float64(v.NumPages()))
	buf := make([]byte, PageSize)
	for i := 0; i < pages; i++ {
		v.randomPage(buf)
		v.WritePage(i, buf)
	}
	return nil
}

// Ramdisk models the controlled-update environment of §4.5: a single large
// file in a ramdisk laid out sequentially in guest physical memory,
// covering frac of the VM's pages (0.90 in the paper). UpdateBlocks then
// rewrites selected parts of it.
type Ramdisk struct {
	vm    *VM
	first int
	pages int
	rng   *rand.Rand
}

// NewRamdisk allocates and fills the ramdisk, returning a handle for
// subsequent updates.
func (v *VM) NewRamdisk(frac float64) (*Ramdisk, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("vm: ramdisk fraction %v out of (0,1]", frac)
	}
	pages := int(frac * float64(v.NumPages()))
	if pages == 0 {
		return nil, fmt.Errorf("vm: ramdisk fraction %v yields zero pages", frac)
	}
	r := &Ramdisk{vm: v, first: 0, pages: pages, rng: rand.New(rand.NewSource(v.seed ^ 0x72616D64))}
	buf := make([]byte, PageSize)
	for i := 0; i < pages; i++ {
		r.fillPage(buf)
		v.WritePage(r.first+i, buf)
	}
	return r, nil
}

// Pages reports the ramdisk size in pages.
func (r *Ramdisk) Pages() int { return r.pages }

// UpdatePercent rewrites the given percentage of the ramdisk with fresh
// random data, spread uniformly across the file — the knob behind
// Figure 7's x-axis (25/50/75/100 % updates).
func (r *Ramdisk) UpdatePercent(pct float64) error {
	if pct < 0 || pct > 100 {
		return fmt.Errorf("vm: update percentage %v out of [0,100]", pct)
	}
	count := int(pct / 100 * float64(r.pages))
	perm := r.rng.Perm(r.pages)
	buf := make([]byte, PageSize)
	for _, off := range perm[:count] {
		r.fillPage(buf)
		r.vm.WritePage(r.first+off, buf)
	}
	return nil
}

func (r *Ramdisk) fillPage(buf []byte) {
	r.rng.Read(buf) //nolint:errcheck // math/rand Read never fails
}

// FillPatterned fills the first frac of memory with low-entropy pages
// (repeating short patterns, like text or sparse data structures), each
// still distinct from the others.
func (v *VM) FillPatterned(frac float64) error {
	if frac < 0 || frac > 1 {
		return fmt.Errorf("vm: fill fraction %v out of [0,1]", frac)
	}
	pages := int(frac * float64(v.NumPages()))
	buf := make([]byte, PageSize)
	for i := 0; i < pages; i++ {
		// A 16-byte pattern parameterized by the page number repeats across
		// the page: unique content, high redundancy.
		for j := range buf {
			buf[j] = byte((j % 16) * (i + 1))
		}
		v.WritePage(i, buf)
	}
	return nil
}

// TouchRandomPages dirties n random pages with fresh content — the
// background writer used to exercise iterative pre-copy rounds during a
// live migration.
func (v *VM) TouchRandomPages(n int) {
	buf := make([]byte, PageSize)
	for k := 0; k < n; k++ {
		v.mu.Lock()
		i := v.rng.Intn(v.NumPages())
		v.rng.Read(buf) //nolint:errcheck // math/rand Read never fails
		v.mu.Unlock()
		v.WritePage(i, buf)
	}
}

// randomPage fills buf with guest-rng random bytes.
func (v *VM) randomPage(buf []byte) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.rng.Read(buf) //nolint:errcheck // math/rand Read never fails
}
