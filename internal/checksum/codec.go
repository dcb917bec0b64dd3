package checksum

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
)

// The bulk hash-announcement codec (§3.2). The destination sends the set of
// checksums it can satisfy locally in one message before the first copy
// round: for a 4 GiB guest with 2^20 pages that is at most 16 MiB of MD5
// sums, which the paper argues is always recouped by the saved page traffic.
//
// Wire layout: a uint32 count followed by count 16-byte sums in ascending
// byte order. Sorting makes the encoding canonical, which simplifies tests.
// DecodeSet does not check the order: it adds the sums to a set as they
// come, so sums out of order or repeated decode to the same set.

// maxEncodedSums bounds a decoded announcement to guard against a corrupt or
// hostile length prefix. 1 GiB of sums covers a 256 TiB guest at 4 KiB pages
// — far beyond anything this system migrates.
const maxEncodedSums = 1 << 26

// decodePresizeSums caps the set capacity DecodeSet reserves on a claimed
// count: the sums of a 256 MiB guest.
const decodePresizeSums = 1 << 16

// sumsPool recycles the sorted-scratch slices the announce encoders use.
// Announcements are O(guest pages) — 16 MiB of sums for a 4 GiB guest — so
// allocating a fresh slice per announce dominated the encode cost.
var sumsPool = sync.Pool{
	New: func() any { s := make([]Sum, 0, 1024); return &s },
}

// flattenPool recycles the chunked write buffer EncodeSet flattens sums into.
var flattenPool = sync.Pool{
	New: func() any { b := make([]byte, 0, flattenChunk*Size); return &b },
}

const flattenChunk = 4096

// sortedSums returns the set's contents in ascending byte order in a pooled
// scratch slice. Callers must hand it back with putSums when done.
func sortedSums(st *Set) *[]Sum {
	p := sumsPool.Get().(*[]Sum)
	*p = st.AppendSums((*p)[:0])
	sums := *p
	sort.Slice(sums, func(i, j int) bool {
		return bytes.Compare(sums[i][:], sums[j][:]) < 0
	})
	return p
}

func putSums(p *[]Sum) {
	*p = (*p)[:0]
	sumsPool.Put(p)
}

// EncodeSet writes the canonical encoding of the set to w.
func EncodeSet(w io.Writer, st *Set) error {
	p := sortedSums(st)
	defer putSums(p)
	sums := *p
	var count [4]byte
	binary.LittleEndian.PutUint32(count[:], uint32(len(sums)))
	if _, err := w.Write(count[:]); err != nil {
		return fmt.Errorf("checksum: encode count: %w", err)
	}
	// Flatten into one buffer so the transport sees a few large writes
	// instead of one syscall per sum.
	bp := flattenPool.Get().(*[]byte)
	defer func() { *bp = (*bp)[:0]; flattenPool.Put(bp) }()
	buf := (*bp)[:0]
	for i, s := range sums {
		buf = append(buf, s[:]...)
		if (i+1)%flattenChunk == 0 || i == len(sums)-1 {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("checksum: encode sums: %w", err)
			}
			buf = buf[:0]
		}
	}
	return nil
}

// DecodeSet reads an announcement produced by EncodeSet.
func DecodeSet(r io.Reader) (*Set, error) {
	var count [4]byte
	if _, err := io.ReadFull(r, count[:]); err != nil {
		return nil, fmt.Errorf("checksum: decode count: %w", err)
	}
	n := binary.LittleEndian.Uint32(count[:])
	if n > maxEncodedSums {
		return nil, fmt.Errorf("checksum: announcement claims %d sums, limit %d", n, maxEncodedSums)
	}
	// The count is only the peer's word: pre-size for at most a modest guest
	// and let the set grow as sums actually arrive, so a 4-byte header cannot
	// make this side allocate for 2^26 of them.
	st := NewSet(int(min(n, decodePresizeSums)))
	var s Sum
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(r, s[:]); err != nil {
			return nil, fmt.Errorf("checksum: decode sum %d/%d: %w", i, n, err)
		}
		st.Add(s)
	}
	return st, nil
}

// EncodedSize reports the exact number of bytes EncodeSet will produce for a
// set of n sums. This is the "additional traffic" term of §3.2.
func EncodedSize(n int) int { return 4 + n*Size }
