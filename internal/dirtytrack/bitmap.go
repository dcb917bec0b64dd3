// Package dirtytrack provides the dirty-page bitmap pre-copy live migration
// uses to find the pages updated during a copy round. (The paper's other
// dirty-tracking mechanism, Miyakodori's per-page generation counters (§4.3),
// is modelled frame-wise by internal/methods for Figure 5; no store or guest
// keeps the counters.)
package dirtytrack

import (
	"fmt"
	"math/bits"
)

// Bitmap is a fixed-size dirty-page bitmap. The zero value is unusable;
// construct with NewBitmap.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap creates a bitmap tracking n pages, all initially clean.
func NewBitmap(n int) (*Bitmap, error) {
	if n < 0 {
		return nil, fmt.Errorf("dirtytrack: negative page count %d", n)
	}
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}, nil
}

// Len reports the number of tracked pages.
func (b *Bitmap) Len() int { return b.n }

// Set marks page i dirty. It panics if i is out of range, mirroring slice
// indexing.
func (b *Bitmap) Set(i int) {
	b.check(i)
	b.words[i/64] |= 1 << (uint(i) % 64)
}

// Clear marks page i clean.
func (b *Bitmap) Clear(i int) {
	b.check(i)
	b.words[i/64] &^= 1 << (uint(i) % 64)
}

// Test reports whether page i is dirty.
func (b *Bitmap) Test(i int) bool {
	b.check(i)
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

func (b *Bitmap) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("dirtytrack: page %d out of range [0,%d)", i, b.n))
	}
}

// Count reports the number of dirty pages.
func (b *Bitmap) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Reset marks every page clean.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// SetAll marks every page dirty (the state at the start of a migration's
// first copy round).
func (b *Bitmap) SetAll() {
	for i := 0; i < b.n; i++ {
		b.Set(i)
	}
}

// ForEachSet calls fn for every dirty page in ascending order.
func (b *Bitmap) ForEachSet(fn func(page int)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			page := wi*64 + bit
			if page >= b.n {
				return
			}
			fn(page)
			w &^= 1 << uint(bit)
		}
	}
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	words := make([]uint64, len(b.words))
	copy(words, b.words)
	return &Bitmap{words: words, n: b.n}
}
