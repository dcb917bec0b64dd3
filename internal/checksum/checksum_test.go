package checksum

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"
	"testing/quick"
)

func TestAlgorithmString(t *testing.T) {
	cases := []struct {
		a    Algorithm
		want string
	}{
		{MD5, "md5"},
		{SHA256, "sha256"},
		{FNV, "fnv"},
		{FAST64, "fast64"},
		{Algorithm(99), "algorithm(99)"},
	}
	for _, tc := range cases {
		if got := tc.a.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.a, got, tc.want)
		}
	}
}

func TestPageMD5MatchesStdlib(t *testing.T) {
	page := bytes.Repeat([]byte{0xAB}, 4096)
	want := md5.Sum(page)
	got := MD5.Page(page)
	if got != Sum(want) {
		t.Errorf("MD5.Page = %v, want %x", got, want)
	}
}

func TestPageDeterministicAndDistinct(t *testing.T) {
	a := []byte("page contents one")
	b := []byte("page contents two")
	for _, alg := range []Algorithm{MD5, SHA256, FNV, FAST64} {
		if alg.Page(a) != alg.Page(a) {
			t.Errorf("%v not deterministic", alg)
		}
		if alg.Page(a) == alg.Page(b) {
			t.Errorf("%v collided on distinct short inputs", alg)
		}
	}
}

func TestPageInvalidAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Page with invalid algorithm should panic")
		}
	}()
	Algorithm(0).Page([]byte("x"))
}

func TestAlgorithmsDisagree(t *testing.T) {
	// Sanity: the three algorithms produce different sums for the same page,
	// so mixing algorithms across hosts is caught by tests elsewhere.
	page := bytes.Repeat([]byte{1, 2, 3, 4}, 1024)
	md := MD5.Page(page)
	sh := SHA256.Page(page)
	fv := FNV.Page(page)
	if md == sh || md == fv || sh == fv {
		t.Errorf("algorithms should not coincide: md5=%v sha=%v fnv=%v", md, sh, fv)
	}
}

func TestSumString(t *testing.T) {
	var s Sum
	s[0] = 0xDE
	s[15] = 0x0F
	if got, want := s.String(), "de00000000000000000000000000000f"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestSetBasics(t *testing.T) {
	st := NewSet(0)
	a := MD5.Page([]byte("a"))
	b := MD5.Page([]byte("b"))
	if st.Len() != 0 || st.Contains(a) {
		t.Fatal("new set not empty")
	}
	st.Add(a)
	st.Add(a)
	if st.Len() != 1 {
		t.Errorf("duplicate Add changed Len to %d", st.Len())
	}
	if !st.Contains(a) || st.Contains(b) {
		t.Error("Contains wrong after Add")
	}
	st.Remove(a)
	if st.Contains(a) || st.Len() != 0 {
		t.Error("Remove did not remove")
	}
	st.Remove(a) // removing absent sum is a no-op
}

func TestSetNegativeHint(t *testing.T) {
	st := NewSet(-5)
	st.Add(MD5.Page([]byte("x")))
	if st.Len() != 1 {
		t.Error("set with negative hint unusable")
	}
}

func TestSetUnionIntersect(t *testing.T) {
	mk := func(ss ...string) *Set {
		st := NewSet(len(ss))
		for _, s := range ss {
			st.Add(MD5.Page([]byte(s)))
		}
		return st
	}
	a := mk("1", "2", "3")
	b := mk("2", "3", "4", "5")
	if got := a.IntersectCount(b); got != 2 {
		t.Errorf("IntersectCount = %d, want 2", got)
	}
	if got := b.IntersectCount(a); got != 2 {
		t.Errorf("IntersectCount not symmetric: %d", got)
	}
	a.Union(b)
	if a.Len() != 5 {
		t.Errorf("Union Len = %d, want 5", a.Len())
	}
}

func TestSetClone(t *testing.T) {
	a := NewSet(1)
	s1 := MD5.Page([]byte("x"))
	a.Add(s1)
	c := a.Clone()
	c.Add(MD5.Page([]byte("y")))
	if a.Len() != 1 || c.Len() != 2 {
		t.Errorf("Clone not independent: a=%d c=%d", a.Len(), c.Len())
	}
}

func TestCodecRoundTrip(t *testing.T) {
	st := NewSet(100)
	for i := 0; i < 100; i++ {
		st.Add(MD5.Page([]byte{byte(i), byte(i >> 8)}))
	}
	var buf bytes.Buffer
	if err := EncodeSet(&buf, st); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), EncodedSize(st.Len()); got != want {
		t.Errorf("encoded size %d, want %d", got, want)
	}
	got, err := DecodeSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != st.Len() {
		t.Fatalf("decoded %d sums, want %d", got.Len(), st.Len())
	}
	for _, s := range st.Sums() {
		if !got.Contains(s) {
			t.Errorf("decoded set missing %v", s)
		}
	}
}

func TestCodecEmptySet(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSet(&buf, NewSet(0)); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("decoded empty set has %d sums", got.Len())
	}
}

func TestCodecCanonical(t *testing.T) {
	// Two sets with the same contents built in different orders must encode
	// identically.
	sums := []Sum{MD5.Page([]byte("a")), MD5.Page([]byte("b")), MD5.Page([]byte("c"))}
	a := NewSet(3)
	for _, s := range sums {
		a.Add(s)
	}
	b := NewSet(3)
	for i := len(sums) - 1; i >= 0; i-- {
		b.Add(sums[i])
	}
	var ba, bb bytes.Buffer
	if err := EncodeSet(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSet(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Error("encoding is not canonical")
	}
}

func TestDecodeTruncated(t *testing.T) {
	st := NewSet(3)
	st.Add(MD5.Page([]byte("x")))
	st.Add(MD5.Page([]byte("y")))
	var buf bytes.Buffer
	if err := EncodeSet(&buf, st); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{0, 2, 4, 5, len(raw) - 1} {
		if _, err := DecodeSet(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("DecodeSet of %d/%d bytes should fail", cut, len(raw))
		}
	}
}

func TestDecodeHostileCount(t *testing.T) {
	// A length prefix claiming 2^31 sums must be rejected before allocation.
	raw := []byte{0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := DecodeSet(bytes.NewReader(raw)); err == nil {
		t.Error("hostile count accepted")
	}
}

// TestDecodeSetClaimedCountNotPresized: a count inside the limit is still only
// the peer's word. A bare 4-byte header claiming 2^26-1 sums must fail on the
// missing sums having allocated about what a modest guest's set costs, not a
// map sized for the claim (over a gigabyte).
func TestDecodeSetClaimedCountNotPresized(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0x03}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := DecodeSet(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header without sums decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Errorf("decoding a 4-byte header allocated %d bytes", got)
	}
}

// FuzzDecodeSet feeds the v1 announcement decoder arbitrary bytes, seeded with
// real frames. It must fail rather than panic or allocate for a count the
// input does not carry, and a frame that decodes is a set: encoding it again
// and decoding that yields the same set.
func FuzzDecodeSet(f *testing.F) {
	for _, n := range []int{0, 1, 7, 40} {
		st := NewSet(n)
		for i := 0; i < n; i++ {
			st.Add(SHA256.Page([]byte{byte(i), byte(n)}))
		}
		var buf bytes.Buffer
		if err := EncodeSet(&buf, st); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x03}) // 2^26-1 sums claimed, none sent
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := DecodeSet(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if claimed := binary.LittleEndian.Uint32(raw); st.Len() > int(claimed) {
			t.Fatalf("decoded %d sums from a frame claiming %d", st.Len(), claimed)
		}
		var buf bytes.Buffer
		if err := EncodeSet(&buf, st); err != nil {
			t.Fatalf("decoded set does not re-encode: %v", err)
		}
		again, err := DecodeSet(&buf)
		if err != nil {
			t.Fatalf("re-encoded set does not decode: %v", err)
		}
		if again.Len() != st.Len() || again.IntersectCount(st) != st.Len() {
			t.Fatalf("round trip changed the set: %d sums -> %d, %d in common", st.Len(), again.Len(), again.IntersectCount(st))
		}
	})
}

// Property: encode/decode is lossless for arbitrary page contents.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(pages [][]byte) bool {
		st := NewSet(len(pages))
		for _, p := range pages {
			st.Add(MD5.Page(p))
		}
		var buf bytes.Buffer
		if err := EncodeSet(&buf, st); err != nil {
			return false
		}
		got, err := DecodeSet(&buf)
		if err != nil {
			return false
		}
		if got.Len() != st.Len() {
			return false
		}
		for _, s := range st.Sums() {
			if !got.Contains(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: IntersectCount(a, b) == IntersectCount(b, a) and is bounded by
// min(|a|, |b|).
func TestIntersectCountProperty(t *testing.T) {
	f := func(xs, ys []byte) bool {
		a, b := NewSet(len(xs)), NewSet(len(ys))
		for _, x := range xs {
			a.Add(MD5.Page([]byte{x}))
		}
		for _, y := range ys {
			b.Add(MD5.Page([]byte{y}))
		}
		ab, ba := a.IntersectCount(b), b.IntersectCount(a)
		if ab != ba {
			return false
		}
		limit := a.Len()
		if b.Len() < limit {
			limit = b.Len()
		}
		return ab <= limit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroPageMemoMatchesDirectHash(t *testing.T) {
	zero := make([]byte, 4096)
	// Direct references computed without the memo fast path: the same page
	// with one byte flipped and restored still routes through hashPage the
	// first time, so derive the expected sums from stdlib/manual hashing.
	if got, want := MD5.Page(zero), Sum(md5.Sum(zero)); got != want {
		t.Errorf("memoized MD5 zero-page sum = %v, want %v", got, want)
	}
	h := fnv.New64a()
	h.Write(zero)
	var want Sum
	binary.BigEndian.PutUint64(want[:8], h.Sum64())
	if got := FNV.Page(zero); got != want {
		t.Errorf("memoized FNV zero-page sum = %v, want %v", got, want)
	}
	// Repeated calls return the identical memoized value.
	if MD5.Page(zero) != MD5.Page(zero) {
		t.Error("zero-page memo not stable")
	}
}

func TestZeroPageMemoNotTakenForNearZero(t *testing.T) {
	almost := make([]byte, 4096)
	almost[4095] = 1
	if MD5.Page(almost) == MD5.Page(make([]byte, 4096)) {
		t.Error("near-zero page collided with the zero page")
	}
	short := make([]byte, 100) // wrong length must bypass the memo
	if MD5.Page(short) != Sum(md5.Sum(short)) {
		t.Error("short zero input took the 4 KiB memo path")
	}
}

func TestFNVSumByteOrder(t *testing.T) {
	page := []byte("fnv byte order regression")
	h := fnv.New64a()
	h.Write(page)
	v := h.Sum64()
	got := FNV.Page(page)
	var want Sum
	for i := 0; i < 8; i++ { // the original manual big-endian packing
		want[i] = byte(v >> (56 - 8*i))
	}
	if got != want {
		t.Errorf("FNV.Page = %v, want big-endian %v", got, want)
	}
}
