// Package checksum computes and manages per-page checksums, the currency of
// VeCycle's content-based redundancy elimination.
//
// A page has one digest, end to end: Default (SHA-256 truncated to 128 bits)
// is what every migration puts on the wire, what a guest's resident digest
// table records and what the checkpoint store keys pages by. It is strong
// enough that two pages on different physical hosts can be declared identical
// without a byte-for-byte comparison (§3.2–3.4).
//
// The paper's prototype used MD5 (§3.4), ~350 MiB/s on one 2012-era core. MD5
// stays here, with the non-cryptographic FNV and FAST64, for three readers
// only: the paper-constant cost models (migsim, experiments), the independent
// oracle the digest table is verified against (vm.VM.PageSum, RangeSums), and
// the frozen benchmark's layer replay. No migration speaks them.
package checksum

import (
	"crypto/md5"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
)

// Size is the size of a page checksum in bytes. All algorithms produce (or
// are truncated to) 128 bits, matching the MD5 digests used by the paper's
// prototype and its 16 MiB-per-4 GiB hash-announcement arithmetic (§3.2).
const Size = 16

// Sum is one page checksum. It is comparable and therefore usable as a map
// key, which is how checksum sets are implemented.
type Sum [Size]byte

// String formats the sum as lower-case hex.
func (s Sum) String() string { return hex.EncodeToString(s[:]) }

// Algorithm identifies a page-checksum algorithm.
type Algorithm uint8

// Supported algorithms. MD5 is the paper's prototype choice; FNV and FAST64
// are non-cryptographic (FAST64 the word-mixing multi-GB/s one). Only Default
// crosses the wire or keys a store.
const (
	MD5 Algorithm = iota + 1
	SHA256
	FNV
	FAST64
)

// Default is the one algorithm a page is digested under: the migration
// engines' wire checksum (the hello's algorithm byte, which a destination
// refuses to see set to anything else), the resident digest table's entries
// and the checkpoint store's object keys. Because they agree, the 16 bytes
// that cross the wire are the 16 bytes that key the page on disk, so a
// checkpoint save after a migration hashes nothing and a restore serves its
// announcement from the page manifest.
const Default = SHA256

// String returns the conventional lower-case name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case MD5:
		return "md5"
	case SHA256:
		return "sha256"
	case FNV:
		return "fnv"
	case FAST64:
		return "fast64"
	default:
		return fmt.Sprintf("algorithm(%d)", uint8(a))
	}
}

// zeroPageLen is the page size whose all-zero checksum is memoized. It
// matches vm.PageSize (spelled out here to avoid an import cycle: vm
// depends on checksum).
const zeroPageLen = 4096

var zeroPage [zeroPageLen]byte

// zeroSums memoizes the all-zero-page digest per algorithm: zero pages
// dominate real guest images (Figure 4), and hashing 4 KiB of zeros over
// and over is the single most repeated computation of a migration.
var zeroSums [FAST64 + 1]struct {
	once sync.Once
	sum  Sum
}

// Page computes the checksum of a page under the given algorithm.
// SHA-256 digests are truncated to 128 bits; FNV-1a and FAST64 64-bit
// digests occupy the first 8 bytes (big-endian) with the remainder zero.
func (a Algorithm) Page(page []byte) Sum {
	// The zero pre-scan reads the page as 64-bit words (bailing at the first
	// non-zero one), costing a few ns on non-zero pages and skipping the
	// whole digest on zero ones.
	if len(page) == zeroPageLen && a.Valid() && isZeroWords(page) {
		zs := &zeroSums[a]
		zs.once.Do(func() { zs.sum = a.hashPage(zeroPage[:]) })
		return zs.sum
	}
	return a.hashPage(page)
}

func (a Algorithm) hashPage(page []byte) Sum {
	var out Sum
	switch a {
	case MD5:
		out = md5.Sum(page)
	case SHA256:
		full := sha256.Sum256(page)
		copy(out[:], full[:Size])
	case FNV:
		binary.BigEndian.PutUint64(out[:8], fnv1a64(page))
	case FAST64:
		binary.BigEndian.PutUint64(out[:8], fast64(page))
	default:
		panic(fmt.Sprintf("checksum: Page called with invalid %v", a))
	}
	return out
}

// Valid reports whether a is one of the supported algorithms.
func (a Algorithm) Valid() bool {
	return a == MD5 || a == SHA256 || a == FNV || a == FAST64
}
