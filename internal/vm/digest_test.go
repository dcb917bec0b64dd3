package vm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"vecycle/internal/checksum"
)

// alg is the table's algorithm, the one the independent oracle is asked for.
const alg = checksum.Default

// auditDigests asserts the table invariant: wherever the table answers, the
// answer is the digest of the bytes. Digests hashes what the table does not
// cover and RangeSums never reads the table, so comparing the two tests
// exactly the valid entries.
func auditDigests(t *testing.T, v *VM, step string) {
	t.Helper()
	got, _ := v.Digests(0, v.NumPages(), nil)
	want := v.RangeSums(0, v.NumPages(), alg, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after %s: page %d: table says %x, bytes digest to %x", step, i, got[i], want[i])
		}
	}
}

// hashedPages reports how many of v's pages the table cannot answer for.
func hashedPages(v *VM) int {
	_, hashed := v.Digests(0, v.NumPages(), nil)
	return hashed
}

func TestDigestTableLifecycle(t *testing.T) {
	const pages = 16
	v := newVM(t, pages)
	if got := hashedPages(v); got != pages {
		t.Fatalf("fresh guest: table answers for %d pages, want none", pages-got)
	}
	if got := v.CompleteDigests(); got != pages {
		t.Fatalf("CompleteDigests hashed %d pages of a fresh guest, want %d", got, pages)
	}
	if got := hashedPages(v); got != 0 {
		t.Fatalf("%d pages left to hash after CompleteDigests", got)
	}
	if got := v.CompleteDigests(); got != 0 {
		t.Fatalf("second CompleteDigests hashed %d pages, want 0", got)
	}

	// Every plain mutation forgets exactly the pages it touches.
	v.WritePage(3, page(0xAB))
	v.InstallPage(5, page(0xCD))
	v.InstallRange(8, append(page(1), page(2)...))
	if got := hashedPages(v); got != 4 {
		t.Fatalf("%d pages unknown after writing 1 and installing 3, want 4", got)
	}
	auditDigests(t, v, "plain mutations")

	// Digest-carrying installs keep them.
	v.InstallPageSum(3, page(0xEE), alg.Page(page(0xEE)))
	two := append(page(7), page(9)...)
	v.InstallRangeSums(8, two, []checksum.Sum{alg.Page(page(7)), alg.Page(page(9))})
	if got := hashedPages(v); got != 1 {
		t.Fatalf("%d pages unknown, want 1 (page 5)", got)
	}
	auditDigests(t, v, "digest installs")

	// ReadRangeDigests: bytes and digest-if-known, together.
	buf := make([]byte, 4*PageSize)
	sums := make([]checksum.Sum, 4)
	known := make([]bool, 4)
	v.ReadRangeDigests(3, 4, buf, sums, known, nil)
	for i, wantKnown := range []bool{true, true, false, true} {
		if known[i] != wantKnown {
			t.Errorf("page %d: known=%v, want %v", 3+i, known[i], wantKnown)
		}
		if known[i] && sums[i] != alg.Page(buf[i*PageSize:(i+1)*PageSize]) {
			t.Errorf("page %d: digest does not describe the bytes read with it", 3+i)
		}
	}

}

// TestDigestTableAudit drives a seeded random sequence of every operation
// that touches memory or the table and checks the invariant after each step.
func TestDigestTableAudit(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const pages = 48
			rng := rand.New(rand.NewSource(seed))
			v := newVM(t, pages)
			fresh := func(n int) []byte {
				b := make([]byte, n*PageSize)
				rng.Read(b)
				return b
			}
			sumsOf := func(data []byte) []checksum.Sum {
				out := make([]checksum.Sum, len(data)/PageSize)
				for i := range out {
					out[i] = alg.Page(data[i*PageSize : (i+1)*PageSize])
				}
				return out
			}
			for step := 0; step < 400; step++ {
				start := rng.Intn(pages)
				count := 1 + rng.Intn(min(8, pages-start))
				var op string
				switch rng.Intn(7) {
				case 0:
					op = "WritePage"
					v.WritePage(start, fresh(1))
				case 1:
					op = "InstallPage"
					v.InstallPage(start, fresh(1))
				case 2:
					op = "InstallRange"
					v.InstallRange(start, fresh(count))
				case 3:
					op = "InstallPageSum"
					data := fresh(1)
					v.InstallPageSum(start, data, alg.Page(data))
				case 4:
					op = "InstallRangeSums"
					data := fresh(count)
					v.InstallRangeSums(start, data, sumsOf(data))
				case 5:
					op = "CompleteDigests"
					v.CompleteDigests()
					if got := hashedPages(v); got != 0 {
						t.Fatalf("step %d: %d pages unknown right after CompleteDigests", step, got)
					}
				case 6:
					op = "ReadRangeDigests"
					buf := make([]byte, count*PageSize)
					sums := make([]checksum.Sum, count)
					known := make([]bool, count)
					v.ReadRangeDigests(start, count, buf, sums, known, nil)
					for i, want := range sumsOf(buf) {
						if known[i] && sums[i] != want {
							t.Fatalf("step %d: page %d read with a digest that is not its bytes'", step, start+i)
						}
					}
				}
				auditDigests(t, v, fmt.Sprintf("step %d (%s)", step, op))
			}
		})
	}
}

// TestDigestTableConcurrent runs writers, digest-carrying installers, a
// completer, a source writing digests back, a dirty-log harvester and readers
// against one guest at once — the overlap a live migration has — and checks
// in every reader that a digest handed out with bytes describes those bytes. Run under -race it also proves the table
// needs no lock of its own.
func TestDigestTableConcurrent(t *testing.T) {
	const pages = 64
	v := newVM(t, pages)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	spawn := func(seed int64, body func(rng *rand.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					body(rng)
				}
			}
		}()
	}
	for w := int64(0); w < 2; w++ {
		spawn(10+w, func(rng *rand.Rand) {
			data := make([]byte, PageSize)
			rng.Read(data)
			v.WritePage(rng.Intn(pages), data)
		})
	}
	spawn(20, func(rng *rand.Rand) {
		data := make([]byte, PageSize)
		rng.Read(data)
		v.InstallPageSum(rng.Intn(pages), data, alg.Page(data))
	})
	spawn(30, func(*rand.Rand) { v.CompleteDigests() })
	// A migration source: read a span, hash it outside the lock, write back.
	spawn(35, func(rng *rand.Rand) {
		start := rng.Intn(pages - 8)
		epoch := v.DigestEpoch()
		buf := make([]byte, 8*PageSize)
		v.ReadRange(start, 8, buf)
		batch := make([]int, 8)
		sums := make([]checksum.Sum, 8)
		for i := range batch {
			batch[i], sums[i] = start+i, alg.Page(buf[i*PageSize:(i+1)*PageSize])
		}
		v.StoreDigests(epoch, batch, sums)
	})
	spawn(36, func(*rand.Rand) { v.HarvestDirty() })

	var readers sync.WaitGroup
	for r := int64(0); r < 2; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 8*PageSize)
			sums := make([]checksum.Sum, 8)
			known := make([]bool, 8)
			hits := 0
			for iter := 0; iter < 2000 || hits == 0; iter++ {
				start := rng.Intn(pages - 8)
				v.ReadRangeDigests(start, 8, buf, sums, known, nil)
				for i := range known {
					if !known[i] {
						continue
					}
					hits++
					if sums[i] != alg.Page(buf[i*PageSize:(i+1)*PageSize]) {
						t.Errorf("page %d: digest and bytes read together disagree", start+i)
						return
					}
				}
			}
		}(40 + r)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	auditDigests(t, v, "the concurrent run")

	// A checkpoint restore's overlap: one goroutine fills a span it owns
	// through InstallRangeFrom — its bytes written outside the lock — while
	// others install digest-carrying spans and look digests up on the rest.
	const owned = 16 // pages [0, owned) belong to the filler
	stop = make(chan struct{})
	spawn(50, func(rng *rand.Rand) {
		start := owned + rng.Intn(pages-owned-8)
		data := make([]byte, 8*PageSize)
		rng.Read(data)
		sums := make([]checksum.Sum, 8)
		for i := range sums {
			sums[i] = alg.Page(data[i*PageSize : (i+1)*PageSize])
		}
		v.InstallRangeSums(start, data, sums)
	})
	spawn(51, func(rng *rand.Rand) {
		start := owned + rng.Intn(pages-owned-8)
		v.Digests(start, 8, nil)
	})
	fill := rand.New(rand.NewSource(52))
	data := make([]byte, owned*PageSize)
	sums := make([]checksum.Sum, owned)
	for iter := 0; iter < 200; iter++ {
		fill.Read(data)
		for i := range sums {
			sums[i] = alg.Page(data[i*PageSize : (i+1)*PageSize])
		}
		err := v.InstallRangeFrom(0, sums, func(first int, dst []byte) error {
			copy(dst, data[first*PageSize:])
			return nil
		})
		if got, hashed := v.Digests(0, owned, nil); err != nil || hashed != 0 || !slices.Equal(got, sums) {
			t.Errorf("iteration %d: err %v; after the fill the table holds %d of the span's digests, or other ones", iter, err, owned-hashed)
			break
		}
	}
	close(stop)
	wg.Wait()
	auditDigests(t, v, "the concurrent fill")
}

// TestDigestTableInstallFrom pins InstallRangeFrom's digest rules: while fill
// runs the span's digests are forgotten, after a successful one they are the
// caller's sums, and after a failed one they stay forgotten with the epoch
// advanced — the bytes are whatever fill got to write.
func TestDigestTableInstallFrom(t *testing.T) {
	const pages = 16
	start, count := 4, 6
	data := make([]byte, count*PageSize)
	sums := make([]checksum.Sum, count)
	for i := range sums {
		copy(data[i*PageSize:], page(byte(0x30+i)))
		sums[i] = alg.Page(page(byte(0x30 + i)))
	}
	t.Run("ok", func(t *testing.T) {
		v := newVM(t, pages)
		v.CompleteDigests()
		err := v.InstallRangeFrom(start, sums, func(first int, dst []byte) error {
			if _, hashed := v.Digests(start, count, nil); hashed != count {
				t.Errorf("during fill the table answers for %d of the span's pages, want none", count-hashed)
			}
			copy(dst, data[(first-start)*PageSize:])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, hashed := v.Digests(start, count, nil); hashed != 0 || !slices.Equal(got, sums) {
			t.Errorf("after fill: %d pages hashed, digests equal %v", hashed, slices.Equal(got, sums))
		}
		if got := hashedPages(v); got != 0 {
			t.Errorf("%d pages unknown; the install forgot digests outside its span", got)
		}
		auditDigests(t, v, "a successful fill")
	})
	t.Run("fill-fails", func(t *testing.T) {
		v := newVM(t, pages)
		v.CompleteDigests()
		epoch := v.DigestEpoch()
		boom := errors.New("read failed")
		err := v.InstallRangeFrom(start, sums, func(first int, dst []byte) error {
			copy(dst[:PageSize], data) // a torn read: one page landed
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want fill's", err)
		}
		if _, hashed := v.Digests(start, count, nil); hashed != count {
			t.Errorf("after a failed fill the table answers for %d of the span's pages, want none", count-hashed)
		}
		if got := hashedPages(v); got != count {
			t.Errorf("%d pages unknown, want the span's %d", got, count)
		}
		if v.DigestEpoch() == epoch {
			t.Error("a failed fill left the digest epoch where it was")
		}
		auditDigests(t, v, "a failed fill")
	})
}

// TestDigestTableKeep pins ReadRangeDigests' keep: a page whose recorded
// digest equals keep's entry is not copied — dst keeps its sentinel there —
// yet its digest and known flag come back; a page whose digest differs, or
// that has none recorded, is copied whatever keep says.
func TestDigestTableKeep(t *testing.T) {
	const pages = 8
	v := newVM(t, pages)
	for i := 0; i < pages; i++ {
		v.InstallPageSum(i, page(byte(i+1)), alg.Page(page(byte(i+1))))
	}
	v.WritePage(2, page(0x77)) // no digest recorded for page 2
	keep := make([]checksum.Sum, pages)
	for i := range keep {
		keep[i] = alg.Page(page(byte(i + 1)))
	}
	keep[5] = alg.Page(page(0x55)) // page 5 changed since keep
	keep[2] = alg.Page(page(0x77)) // equal content, but unrecorded
	const sentinel = 0xA5
	dst := bytes.Repeat([]byte{sentinel}, 6*PageSize)
	sums, known := make([]checksum.Sum, 6), make([]bool, 6)
	v.ReadRangeDigests(1, 6, dst, sums, known, keep[1:7])
	for i := 0; i < 6; i++ {
		p := 1 + i
		got := dst[i*PageSize : (i+1)*PageSize]
		wantKnown := p != 2
		if known[i] != wantKnown || (known[i] && sums[i] != alg.Page(page(byte(p+1)))) {
			t.Errorf("page %d: known=%v (want %v), digest right %v", p, known[i], wantKnown, sums[i] == alg.Page(page(byte(p+1))))
		}
		switch p {
		case 2:
			if !bytes.Equal(got, page(0x77)) {
				t.Errorf("page 2 has no recorded digest but was not copied")
			}
		case 5:
			if !bytes.Equal(got, page(byte(p+1))) {
				t.Errorf("page 5 differs from keep but was not copied")
			}
		default:
			if !bytes.Equal(got, bytes.Repeat([]byte{sentinel}, PageSize)) {
				t.Errorf("page %d equals keep but was copied", p)
			}
		}
	}
}

// TestDigestTableWriteBack pins StoreDigests' two rules, the ones that let a
// migration source hash outside the lock and write the digests back: a page
// written between the read and the store stays unrecorded, and a batch stored
// after an intervening HarvestDirty — which clears the dirty bit that would
// have shown the write — is refused whole. A clean page is recorded.
func TestDigestTableWriteBack(t *testing.T) {
	const pages = 8
	batch := []int{1, 2, 3}
	// readBatch reads the batch as the source does: the epoch first, then the
	// bytes, digested outside the lock.
	readBatch := func(v *VM) (uint64, []checksum.Sum) {
		epoch := v.DigestEpoch()
		buf := make([]byte, PageSize)
		sums := make([]checksum.Sum, len(batch))
		for i, p := range batch {
			v.ReadPage(p, buf)
			sums[i] = alg.Page(buf)
		}
		return epoch, sums
	}
	t.Run("clean", func(t *testing.T) {
		v := newVM(t, pages)
		epoch, sums := readBatch(v)
		v.StoreDigests(epoch, batch, sums)
		if got := hashedPages(v); got != pages-len(batch) {
			t.Errorf("%d pages unknown after the store, want %d", got, pages-len(batch))
		}
		auditDigests(t, v, "a clean store")
	})
	t.Run("written-since-read", func(t *testing.T) {
		v := newVM(t, pages)
		epoch, sums := readBatch(v)
		v.WritePage(2, page(0x5A))
		v.StoreDigests(epoch, batch, sums)
		if got := hashedPages(v); got != pages-len(batch)+1 {
			t.Errorf("%d pages unknown after the store, want %d (page 2 among them)", got, pages-len(batch)+1)
		}
		auditDigests(t, v, "a store over a written page")
	})
	t.Run("harvest-since-read", func(t *testing.T) {
		v := newVM(t, pages)
		epoch, sums := readBatch(v)
		v.WritePage(2, page(0x5A))
		v.HarvestDirty()
		v.StoreDigests(epoch, batch, sums)
		if got := hashedPages(v); got != pages {
			t.Errorf("%d pages recorded after a harvest, want the batch refused", pages-got)
		}
		auditDigests(t, v, "a store after a harvest")
	})
}
