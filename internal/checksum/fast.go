package checksum

import (
	"encoding/binary"
	"math/bits"
)

// Word-wise page hashing. The original FNV path went through hash/fnv's
// hash.Hash interface — one allocation and one byte-at-a-time multiply loop
// per page, which benched *slower* than hardware-assisted SHA-256. Both
// fast-path hashes here read the page as 64-bit words instead:
//
//   - fnv1a64 is a drop-in, digest-compatible FNV-1a rewrite. The multiply
//     chain is inherently serial (one 64-bit multiply per byte), so it only
//     wins back the interface and allocation overhead; its digests must stay
//     byte-identical because vm.Fingerprint64 and recorded announce frames
//     consume them.
//   - fast64 is a new algorithm with no compatibility constraint: four
//     independent accumulator lanes each fold one 64-bit word per step, so
//     the multiplies pipeline instead of serializing, followed by a final
//     avalanche. Multi-GB/s on one core; integrity-tag strength only (it is
//     not collision-resistant).

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a64 computes the FNV-1a 64-bit digest of p, byte-identical to
// hash/fnv's New64a, with the inner loop unrolled 8 bytes at a time and no
// interface or allocation overhead.
func fnv1a64(p []byte) uint64 {
	h := uint64(fnvOffset64)
	for len(p) >= 8 {
		h = (h ^ uint64(p[0])) * fnvPrime64
		h = (h ^ uint64(p[1])) * fnvPrime64
		h = (h ^ uint64(p[2])) * fnvPrime64
		h = (h ^ uint64(p[3])) * fnvPrime64
		h = (h ^ uint64(p[4])) * fnvPrime64
		h = (h ^ uint64(p[5])) * fnvPrime64
		h = (h ^ uint64(p[6])) * fnvPrime64
		h = (h ^ uint64(p[7])) * fnvPrime64
		p = p[8:]
	}
	for _, c := range p {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// fast64 lane seeds and mix constants: odd 64-bit constants with no simple
// structure (golden-ratio and xorshift-multiply derivatives).
const (
	fastSeed1 = 0x9e3779b97f4a7c15
	fastSeed2 = 0xbf58476d1ce4e5b9
	fastSeed3 = 0x94d049bb133111eb
	fastSeed4 = 0x2545f4914f6cdd1d
	fastMult  = 0x9ddfea08eb382d69
)

// fast64 computes the word-mixing digest of p: four lanes consume one
// little-endian 64-bit word each per 32-byte stripe, a word loop and a byte
// loop absorb the tail, and the lanes collapse through an avalanche. Pure
// function of the bytes of p — the wire stream invariants depend on that.
func fast64(p []byte) uint64 {
	n := len(p)
	v1 := uint64(fastSeed1) ^ uint64(n)*fastMult
	v2 := uint64(fastSeed2)
	v3 := uint64(fastSeed3)
	v4 := uint64(fastSeed4)
	for len(p) >= 32 {
		v1 = (v1 ^ binary.LittleEndian.Uint64(p[0:8])) * fastMult
		v2 = (v2 ^ binary.LittleEndian.Uint64(p[8:16])) * fastMult
		v3 = (v3 ^ binary.LittleEndian.Uint64(p[16:24])) * fastMult
		v4 = (v4 ^ binary.LittleEndian.Uint64(p[24:32])) * fastMult
		p = p[32:]
	}
	h := bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
		bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
	for len(p) >= 8 {
		h = bits.RotateLeft64((h^binary.LittleEndian.Uint64(p[:8]))*fastMult, 27)
		p = p[8:]
	}
	for _, c := range p {
		h = bits.RotateLeft64((h^uint64(c))*fastMult, 11)
	}
	// Final avalanche (xorshift-multiply): every input bit reaches every
	// output bit.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 32
	return h
}

// isZeroWords reports whether p is all zero bytes, scanning 64 bytes (eight
// 64-bit words) per step. len(p) must be a multiple of 64 — callers pass
// whole pages. It replaces the byte-wise bytes.Equal probe against a zero
// page: no second buffer is touched, so the scan runs at memory speed and
// the common all-zero case short-circuits hashing entirely.
func isZeroWords(p []byte) bool {
	for len(p) >= 64 {
		x := binary.LittleEndian.Uint64(p[0:8]) |
			binary.LittleEndian.Uint64(p[8:16]) |
			binary.LittleEndian.Uint64(p[16:24]) |
			binary.LittleEndian.Uint64(p[24:32]) |
			binary.LittleEndian.Uint64(p[32:40]) |
			binary.LittleEndian.Uint64(p[40:48]) |
			binary.LittleEndian.Uint64(p[48:56]) |
			binary.LittleEndian.Uint64(p[56:64])
		if x != 0 {
			return false
		}
		p = p[64:]
	}
	return len(p) == 0
}
