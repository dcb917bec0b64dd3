package vm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vecycle/internal/checksum"
)

// auditDigests asserts the table invariant for both algorithms the audit
// uses: wherever the table answers, the answer is the digest of the bytes.
// Digests hashes what the table does not cover and RangeSums never reads the
// table, so comparing the two tests exactly the valid entries.
func auditDigests(t *testing.T, v *VM, step string) {
	t.Helper()
	for _, alg := range []checksum.Algorithm{checksum.MD5, checksum.SHA256} {
		got, _ := v.Digests(0, v.NumPages(), alg, nil)
		want := v.RangeSums(0, v.NumPages(), alg, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("after %s: page %d under %v: table says %x, bytes digest to %x", step, i, alg, got[i], want[i])
			}
		}
	}
}

// hashedPages reports how many of v's pages the table cannot answer for.
func hashedPages(v *VM, alg checksum.Algorithm) int {
	_, hashed := v.Digests(0, v.NumPages(), alg, nil)
	return hashed
}

func TestDigestTableLifecycle(t *testing.T) {
	const pages = 16
	v := newVM(t, pages)
	alg := checksum.MD5
	if got := hashedPages(v, alg); got != pages {
		t.Fatalf("fresh guest: table answers for %d pages, want none", pages-got)
	}
	if got := v.CompleteDigests(alg); got != pages {
		t.Fatalf("CompleteDigests hashed %d pages of a fresh guest, want %d", got, pages)
	}
	if got := hashedPages(v, alg); got != 0 {
		t.Fatalf("%d pages left to hash after CompleteDigests", got)
	}
	if got := v.CompleteDigests(alg); got != 0 {
		t.Fatalf("second CompleteDigests hashed %d pages, want 0", got)
	}

	// Every plain mutation forgets exactly the pages it touches.
	v.WritePage(3, page(0xAB))
	v.InstallPage(5, page(0xCD))
	v.InstallRange(8, append(page(1), page(2)...))
	if got := hashedPages(v, alg); got != 4 {
		t.Fatalf("%d pages unknown after writing 1 and installing 3, want 4", got)
	}
	auditDigests(t, v, "plain mutations")

	// Digest-carrying installs keep them.
	v.InstallPageSum(3, page(0xEE), alg, alg.Page(page(0xEE)))
	two := append(page(7), page(9)...)
	v.InstallRangeSums(8, two, alg, []checksum.Sum{alg.Page(page(7)), alg.Page(page(9))})
	if got := hashedPages(v, alg); got != 1 {
		t.Fatalf("%d pages unknown, want 1 (page 5)", got)
	}
	auditDigests(t, v, "digest installs")

	// ReadRangeDigests: bytes and digest-if-known, together.
	buf := make([]byte, 4*PageSize)
	sums := make([]checksum.Sum, 4)
	known := make([]bool, 4)
	v.ReadRangeDigests(3, 4, buf, alg, sums, known)
	for i, wantKnown := range []bool{true, true, false, true} {
		if known[i] != wantKnown {
			t.Errorf("page %d: known=%v, want %v", 3+i, known[i], wantKnown)
		}
		if known[i] && sums[i] != alg.Page(buf[i*PageSize:(i+1)*PageSize]) {
			t.Errorf("page %d: digest does not describe the bytes read with it", 3+i)
		}
	}

	// Another algorithm: everything unknown, and the first record under it
	// starts the table over — no MD5 entry survives as a SHA-256 one.
	other := checksum.SHA256
	if got := hashedPages(v, other); got != pages {
		t.Fatalf("table answers %d pages under an algorithm it never recorded", pages-got)
	}
	v.ReadRangeDigests(0, 4, buf, other, sums, known)
	for i := range known {
		if known[i] {
			t.Errorf("page %d known under the wrong algorithm", i)
		}
	}
	v.InstallPageSum(0, page(0x11), other, other.Page(page(0x11)))
	if got := hashedPages(v, other); got != pages-1 {
		t.Fatalf("%d pages unknown under the new algorithm, want %d", got, pages-1)
	}
	if got := hashedPages(v, alg); got != pages {
		t.Fatalf("%d MD5 entries survived the switch", pages-got)
	}
	auditDigests(t, v, "algorithm switch")
}

// TestDigestTableAudit drives a seeded random sequence of every operation
// that touches memory or the table and checks the invariant after each step.
func TestDigestTableAudit(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const pages = 48
			rng := rand.New(rand.NewSource(seed))
			v := newVM(t, pages)
			algs := []checksum.Algorithm{checksum.MD5, checksum.SHA256}
			fresh := func(n int) []byte {
				b := make([]byte, n*PageSize)
				rng.Read(b)
				return b
			}
			sumsOf := func(alg checksum.Algorithm, data []byte) []checksum.Sum {
				out := make([]checksum.Sum, len(data)/PageSize)
				for i := range out {
					out[i] = alg.Page(data[i*PageSize : (i+1)*PageSize])
				}
				return out
			}
			for step := 0; step < 400; step++ {
				alg := algs[rng.Intn(8)/7] // mostly MD5, sometimes a switch
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
					v.InstallPageSum(start, data, alg, alg.Page(data))
				case 4:
					op = "InstallRangeSums"
					data := fresh(count)
					v.InstallRangeSums(start, data, alg, sumsOf(alg, data))
				case 5:
					op = "CompleteDigests"
					v.CompleteDigests(alg)
					if got := hashedPages(v, alg); got != 0 {
						t.Fatalf("step %d: %d pages unknown right after CompleteDigests", step, got)
					}
				case 6:
					op = "ReadRangeDigests"
					buf := make([]byte, count*PageSize)
					sums := make([]checksum.Sum, count)
					known := make([]bool, count)
					v.ReadRangeDigests(start, count, buf, alg, sums, known)
					for i, want := range sumsOf(alg, buf) {
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
// completer and readers against one guest at once — the overlap a live
// migration has — and checks in every reader that a digest handed out with
// bytes describes those bytes. Run under -race it also proves the table
// needs no lock of its own.
func TestDigestTableConcurrent(t *testing.T) {
	const pages = 64
	const alg = checksum.MD5
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
		v.InstallPageSum(rng.Intn(pages), data, alg, alg.Page(data))
	})
	spawn(30, func(*rand.Rand) { v.CompleteDigests(alg) })

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
				v.ReadRangeDigests(start, 8, buf, alg, sums, known)
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
}
