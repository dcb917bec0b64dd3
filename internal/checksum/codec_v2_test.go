package checksum

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"
)

// goldenSet returns the deterministic 32-sum population both announce
// goldens are pinned against: MD5 sums of synthetic pages.
func goldenSet() *Set {
	st := NewSet(0)
	for i := 0; i < 32; i++ {
		page := make([]byte, 4096)
		for j := range page {
			page[j] = byte(i*7 + j*13)
		}
		st.Add(MD5.Page(page))
	}
	return st
}

// structuredGoldenSet returns a deterministic FNV-shaped population (8
// significant bytes, 8 zero bytes per sum) whose v2 frame exercises the
// deflated byte-plane transpose mode.
func structuredGoldenSet() *Set {
	st := NewSet(0)
	var x uint64 = 0x9e3779b97f4a7c15
	for i := 0; i < 64; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var s Sum
		binary.BigEndian.PutUint64(s[:8], x)
		st.Add(s)
	}
	return st
}

// The announce goldens pin the exact wire bytes of both codec versions:
// old peers must keep seeing the v1 stream unchanged, and the v2 frame is
// part of the protocol surface once shipped. Regenerate by logging
// hex.EncodeToString of the encoder output if the format is deliberately
// revised (the deflate golden also pins compress/flate output, which is
// stable for a pinned toolchain).
const (
	announceGoldenV1 = "2000000002851a95a8f4258e5d86a582b9eb6caa0c388c1aa0cc5db9dcaba6aa2ef1ea8b10ca76ff0f9935b5de04931ea4260e40113aebd8035064faf493033a1266eaec1602516e3e53b65e0c8a229c7ad108891a6efb2577d75c8e992777bbd14096261eddb0f6351c18483699e821ac5aa2882a12ea69ed513ff01d869fe46c86a1343704930ea46adf1f536208cb5a36f2733fee6475163d6754e5c3c420671f54104661b8a44974f9af0173dda0b9136a5f47c8c3d452a5263d4e986f7f125fbb1c56bf000130d370280c55ab61ea99af835d68fba980f36eb9814a28b7c1d33afc62b53c189c1429a9c9312aec9074bad68151e138085935717fa9dc282e1ad17a8ba740d1bee18bfaf5278fae7279f1a48bbcb82e36d7bd9b194fe118e0cf47b79c210e57214b043661cbe690e7d1a95d9cb7558ad8b5de8f5bc2d7175259889aa584e81f59669b437bac5fe9685abc64ac2c5687cdfa0934f44fb288b0a90695bbd0ba9c76f5b639feec28c6756c5a07bd3a6b0a87070b43f00a657c2050ae52be6ca657937f9dc17a2b7f4f00202206c84e60aa5614b54d20afa99174bb681ee3a9323de9fe79ed6464594740347f49ee72e1d02ce2913c530b8161726ff2d5f092918b095effcd0bf421eabc1bee97f3eaf0c57aac6c1e3bd6400c96fd258cf7917c69564469601aae91b919e7e01df979926bfb05b9dbd8420f40bd26362d"

	announceGoldenV2Uniform = "20000000020002000002851a95a8f4258e5d86a582b9eb6caa0c388c1aa0cc5db9dcaba6aa2ef1ea8b10ca76ff0f9935b5de04931ea4260e40113aebd8035064faf493033a1266eaec1602516e3e53b65e0c8a229c7ad108891a6efb2577d75c8e992777bbd14096261eddb0f6351c18483699e821ac5aa2882a12ea69ed513ff01d869fe46c86a1343704930ea46adf1f536208cb5a36f2733fee6475163d6754e5c3c420671f54104661b8a44974f9af0173dda0b9136a5f47c8c3d452a5263d4e986f7f125fbb1c56bf000130d370280c55ab61ea99af835d68fba980f36eb9814a28b7c1d33afc62b53c189c1429a9c9312aec9074bad68151e138085935717fa9dc282e1ad17a8ba740d1bee18bfaf5278fae7279f1a48bbcb82e36d7bd9b194fe118e0cf47b79c210e57214b043661cbe690e7d1a95d9cb7558ad8b5de8f5bc2d7175259889aa584e81f59669b437bac5fe9685abc64ac2c5687cdfa0934f44fb288b0a90695bbd0ba9c76f5b639feec28c6756c5a07bd3a6b0a87070b43f00a657c2050ae52be6ca657937f9dc17a2b7f4f00202206c84e60aa5614b54d20afa99174bb681ee3a9323de9fe79ed6464594740347f49ee72e1d02ce2913c530b8161726ff2d5f092918b095effcd0bf421eabc1bee97f3eaf0c57aac6c1e3bd6400c96fd258cf7917c69564469601aae91b919e7e01df979926bfb05b9dbd8420f40bd26362d"

	announceGoldenV2Structured = "400000000328020000e2e0e1e5e3e317d7d1d5d33330323535b37175f3f20b090d0f8f8c8e4e4ec9c9cdafaa6ee8eceb9f3069faacf98b37ecd8b967cffefd478f9fb979e7ceddc7cfdf7efef3e504a79cbcd48ad732566be377da7c6ee49aa568f5cb7b8f56dfb2496fd23f1472f01f675fe76ed9e7fd5be012bbde2e4e45abdda72f9469ef5825ddb6aa548a6b7358495fe3d923016fc41ef9b5b20afe61bde5faacfe51045fa5e8a6d97daa3eeff25c4cfacf296eddb1f290aeecc34db7265e9f193dfbbf7a804f4165f966bfe6528664cbffab5f30cdbedaf1a0e3b33b8fa7c586fab5370466eb1dfff1566fa1ceca1f3be50e896c9ea8f04ff6f2ddf3e75caaf63fe97be158f7dfbad24c516fdde5d6daf4d72f37eed03ff8f6da9c070bc33cc3cca6d41ec8ccd5f3d37a90bbd6434e6d469b23534ee691e2a74d7f9f7b2e38e177ad22b45ecb7ed62c1e813f174ca4b8cf6e58f1d6c022fbc5ac5f35d65cb78e5ecabfde2bfeebcf64c60f9b3f68322cdfbcf46cedaa77796f9fd7fc9f90ba4cdae9f5baea176dad49fa51ce867b96c5de9ef1e5f3de6b0e3bb4350b575fa9e66958c4edc5e7287f66d5b3491ca5bb194edf4f14fcbb58b335bf2ba13173cefec4c2f5b5bd2767fdfe347b2fc36c81f5b3f65f71aeff5ee0fbedd1cd634151dea2bb9fec9d27b5e64d9c1073c9ce1d41ba8f5dd52a6fe6fe3d14bfb9f6c4ce32737bde6f66f79671f6894b569e8f2a7d23207fe9bdc2faff6fbfbe5a2bdcfda6f4989a3fc32818d100100000ffff"
)

// TestAnnounceGoldenV1 pins the v1 announce byte stream: peers that never
// negotiate the compact capability must keep receiving exactly these bytes.
func TestAnnounceGoldenV1(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSet(&buf, goldenSet()); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != announceGoldenV1 {
		t.Errorf("v1 announce bytes changed:\n got %s\nwant %s", got, announceGoldenV1)
	}
}

// TestAnnounceGoldenV2 pins the v2 frame for both a uniform population
// (which the encoder ships in plain mode — never more than 5 bytes over v1)
// and a structured population (deflate mode).
func TestAnnounceGoldenV2(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   *Set
		want string
	}{
		{"uniform", goldenSet(), announceGoldenV2Uniform},
		{"structured", structuredGoldenSet(), announceGoldenV2Structured},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			n, err := EncodeSetCompact(&buf, tc.st)
			if err != nil {
				t.Fatal(err)
			}
			if n != buf.Len() {
				t.Errorf("EncodeSetCompact reported %d bytes, wrote %d", n, buf.Len())
			}
			if got := hex.EncodeToString(buf.Bytes()); got != tc.want {
				t.Errorf("v2 announce bytes changed:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// compactPopulations returns the populations every compact round-trip runs
// over: empty, single, dense adjacent values, uniform random, and
// FNV-structured.
func compactPopulations() map[string]*Set {
	rng := rand.New(rand.NewSource(42))
	random := NewSet(0)
	for i := 0; i < 2000; i++ {
		var s Sum
		rng.Read(s[:])
		random.Add(s)
	}
	dense := NewSet(0)
	for i := 0; i < 1000; i++ {
		var s Sum
		binary.BigEndian.PutUint64(s[8:], uint64(i*3))
		dense.Add(s)
	}
	single := NewSet(1)
	single.Add(Sum{1: 0xaa, 15: 0x01})
	return map[string]*Set{
		"empty":      NewSet(0),
		"single":     single,
		"dense":      dense,
		"random":     random,
		"structured": structuredGoldenSet(),
	}
}

func TestCompactRoundTrip(t *testing.T) {
	for name, st := range compactPopulations() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			n, err := EncodeSetCompact(&buf, st)
			if err != nil {
				t.Fatal(err)
			}
			if n != buf.Len() {
				t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
			}
			got, err := DecodeSetCompact(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != st.Len() {
				t.Fatalf("decoded %d sums, want %d", got.Len(), st.Len())
			}
			for _, s := range st.Sums() {
				if !got.Contains(s) {
					t.Fatalf("decoded set is missing %x", s)
				}
			}
		})
	}
}

// TestCompactCanonical: the v2 encoding of a set is deterministic, so the
// frame can be golden-pinned and byte-compared in tests.
func TestCompactCanonical(t *testing.T) {
	st := compactPopulations()["random"]
	var a, b bytes.Buffer
	if _, err := EncodeSetCompact(&a, st); err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeSetCompact(&b, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodings of the same set differ")
	}
}

// TestCompactStreamBoundary: the decoder must consume exactly one frame,
// leaving subsequent protocol messages untouched.
func TestCompactStreamBoundary(t *testing.T) {
	for name, st := range compactPopulations() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := EncodeSetCompact(&buf, st); err != nil {
				t.Fatal(err)
			}
			sentinel := []byte{0xde, 0xad, 0xbe, 0xef}
			buf.Write(sentinel)
			if _, err := DecodeSetCompact(&buf); err != nil {
				t.Fatal(err)
			}
			rest, err := io.ReadAll(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rest, sentinel) {
				t.Errorf("decoder consumed past the frame: %d trailing bytes left, want %d", len(rest), len(sentinel))
			}
		})
	}
}

// compactFrame hand-builds a v2 frame from raw parts.
func compactFrame(count uint32, mode byte, body []byte) []byte {
	out := make([]byte, 9, 9+len(body))
	binary.LittleEndian.PutUint32(out[0:4], count)
	out[4] = mode
	binary.LittleEndian.PutUint32(out[5:9], uint32(len(body)))
	return append(out, body...)
}

func TestCompactRejectsCorrupt(t *testing.T) {
	var good bytes.Buffer
	if _, err := EncodeSetCompact(&good, structuredGoldenSet()); err != nil {
		t.Fatal(err)
	}
	ascending := func(vals ...Sum) []byte {
		var b []byte
		var prev Sum
		for i, s := range vals {
			prefix := 0
			if i > 0 {
				for prefix < Size && s[prefix] == prev[prefix] {
					prefix++
				}
			}
			b = append(b, byte(prefix))
			b = append(b, s[prefix:]...)
			prev = s
		}
		return b
	}
	s1 := Sum{0: 1}
	s2 := Sum{0: 2}
	cases := map[string][]byte{
		"unknown mode":        compactFrame(1, 9, make([]byte, 17)),
		"count over limit":    compactFrame(maxEncodedSums+1, compactModeRaw, nil),
		"body over bound":     compactFrame(1, compactModeRaw, make([]byte, 18)),
		"truncated header":    {0x01, 0x00},
		"truncated body":      good.Bytes()[:good.Len()-3],
		"prefix too long":     compactFrame(1, compactModeRaw, append([]byte{Size + 1}, make([]byte, 16)...)),
		"first prefix not 0":  compactFrame(1, compactModeRaw, append([]byte{3}, s1[3:]...)),
		"not ascending":       compactFrame(2, compactModeRaw, ascending(s2, s2)),
		"descending plain":    compactFrame(2, compactModePlain, append(append([]byte{}, s2[:]...), s1[:]...)),
		"trailing body bytes": compactFrame(1, compactModeRaw, append(ascending(s1), 0x00)),
		// Nine bytes claiming the limit: refused on their length, before a map
		// or a plane buffer is sized by the claim (the fuzzer's first find).
		"claimed sums, empty raw body":        compactFrame(maxEncodedSums, compactModeRaw, nil),
		"claimed sums, empty plain body":      compactFrame(maxEncodedSums, compactModePlain, nil),
		"claimed sums, empty deflated body":   compactFrame(maxEncodedSums, compactModeDeflate, nil),
		"claimed sums, empty transposed body": compactFrame(maxEncodedSums, compactModeTranspose, nil),
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeSetCompact(bytes.NewReader(frame)); err == nil {
				t.Error("corrupt frame decoded without error")
			}
		})
	}
}

// realisticImageSums models the announce population of a plausible guest
// under the FNV algorithm: mostly-zero pages with sparse structured words
// (page tables, small heaps, text), plus dirty pages with text-like low
// entropy content. This is the "realistic, non-random memory image" of the
// warm-start acceptance criteria.
func realisticImageSums(pages int) *Set {
	st := NewSet(pages)
	page := make([]byte, 4096)
	for i := 0; i < pages; i++ {
		for j := range page {
			page[j] = 0
		}
		switch i % 4 {
		case 0, 1: // sparse pointer-bearing pages
			for w := 0; w < 32; w++ {
				binary.LittleEndian.PutUint64(page[w*64:], uint64(i)<<12|uint64(w*8)|0x67)
			}
		case 2: // text-like pages
			const text = "the quick brown fox jumps over the lazy dog "
			for j := range page {
				page[j] = text[((i*13)+j)%len(text)]
			}
			binary.LittleEndian.PutUint32(page[0:], uint32(i))
		case 3: // counters and flags
			binary.LittleEndian.PutUint64(page[128:], uint64(i*i))
		}
		st.Add(FNV.Page(page))
	}
	return st
}

// TestCompactHalvesRealisticAnnounce pins the tentpole size criterion: for
// a realistic (non-random) memory image the v2 frame is at most half the v1
// frame. Uniform random MD5 populations cannot beat the entropy floor
// (~85 % after sorting), so the win comes from structured sums — here FNV's
// 8 significant + 8 zero bytes — which is exactly the catalog shape the
// compact mode exists for.
func TestCompactHalvesRealisticAnnounce(t *testing.T) {
	st := realisticImageSums(16384)
	v1 := EncodedSize(st.Len())
	var buf bytes.Buffer
	v2, err := EncodeSetCompact(&buf, st)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("announce for %d distinct sums: v1=%d bytes, v2=%d bytes (%.1f%%)",
		st.Len(), v1, v2, 100*float64(v2)/float64(v1))
	if v2*2 > v1 {
		t.Errorf("v2 frame is %d bytes, want <= 50%% of v1's %d", v2, v1)
	}
	got, err := DecodeSetCompact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != st.Len() {
		t.Errorf("round trip lost sums: %d != %d", got.Len(), st.Len())
	}
}

// TestCompactNeverBeatsItsFloor: for any population the v2 frame stays
// within the 5-byte preamble overhead of v1 (the plain-mode guarantee).
func TestCompactPlainModeCeiling(t *testing.T) {
	for name, st := range compactPopulations() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			n, err := EncodeSetCompact(&buf, st)
			if err != nil {
				t.Fatal(err)
			}
			if max := EncodedSize(st.Len()) + 5; n > max {
				t.Errorf("v2 frame is %d bytes, ceiling is %d", n, max)
			}
		})
	}
}

// TestEncodeSetScratchReuse guards the announce-path allocation fix: after
// warm-up, EncodeSet must not allocate per-sum scratch (the sorted slice
// and flatten buffer come from pools). ~2 allocs of slack cover the
// sort.Slice closure headers.
func TestEncodeSetScratchReuse(t *testing.T) {
	st := compactPopulations()["random"]
	if err := EncodeSet(io.Discard, st); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := EncodeSet(io.Discard, st); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 8 {
		t.Errorf("EncodeSet allocates %.1f objects per call after warm-up, want <= 8", avg)
	}
}
