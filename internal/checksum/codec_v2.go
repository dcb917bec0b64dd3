package checksum

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
)

// The compact hash-announcement codec (protocol v2). The v1 announcement
// ships every sum raw; on the paper's CloudNet WAN setting (465 Mbps / 27 ms)
// that front-loads up to 16 MiB per 4 GiB guest before the first copy round.
// The v2 frame keeps the sums lossless but exploits their structure:
//
//  1. Sums are sorted (as in v1, so the encoding stays canonical).
//  2. Each sum is delta-encoded against its predecessor: a one-byte shared
//     prefix length followed by only the differing suffix bytes. Dense sets
//     share long prefixes; even uniform MD5 populations share log2(n)/8
//     bytes on average.
//  3. The delta stream is deflated. Structured populations (FNV sums with
//     fixed zero padding, clustered content-addressed catalogs) collapse;
//     for incompressible populations the encoder falls back to the raw
//     delta stream, so a v2 frame never exceeds the delta encoding and in
//     practice stays below the v1 frame.
//
// Wire layout:
//
//	count   uint32  number of sums
//	mode    uint8   0 = raw delta stream, 1 = deflate(delta stream),
//	                2 = plain sorted sums (v1 body),
//	                3 = deflate(byte-plane transpose of the sorted sums)
//	bodyLen uint32  byte length of body
//	body    bodyLen bytes
//
// Mode 3 lays the sorted sums out column-major — all byte-0s, then all
// byte-1s, … — before deflating. Sorting makes the leading planes runs of
// slowly-increasing values, and structured populations (FNV's fixed zero
// half, clustered catalogs) turn whole planes into single runs, which is
// where the big wins come from.
//
// Delta stream, for each sum in strictly ascending byte order:
//
//	prefix  uint8   bytes shared with the previous sum (0 for the first)
//	suffix  Size-prefix bytes
//
// The decoder rejects non-ascending reconstructions, so the v2 encoding is
// canonical and self-checking like v1.

// Compact frame modes. The encoder picks whichever representation is
// smallest, so a v2 frame never exceeds the v1 body by more than the
// 5-byte mode+length preamble.
const (
	compactModeRaw       = 0 // prefix-delta stream
	compactModeDeflate   = 1 // deflate(prefix-delta stream)
	compactModePlain     = 2 // sorted raw sums, the v1 body
	compactModeTranspose = 3 // deflate(byte-plane transpose of sorted sums)
)

// compactHeaderSize is the fixed preamble of a v2 frame: count, mode, bodyLen.
const compactHeaderSize = 4 + 1 + 4

// EncodeSetCompact writes the compact (v2) encoding of the set to w and
// reports the number of frame bytes written. The equivalent v1 size is
// EncodedSize(st.Len()); the two together are the before/after numbers the
// observability layer records.
func EncodeSetCompact(w io.Writer, st *Set) (int, error) {
	p := sortedSums(st)
	defer putSums(p)
	sums := *p

	// Build the prefix-delta stream.
	raw := bytes.NewBuffer(make([]byte, 0, 64))
	if len(sums) > 0 {
		raw.Grow(len(sums) * (1 + Size) / 2)
	}
	var prev Sum
	for i, s := range sums {
		prefix := 0
		if i > 0 {
			for prefix < Size && s[prefix] == prev[prefix] {
				prefix++
			}
		}
		raw.WriteByte(byte(prefix))
		raw.Write(s[prefix:])
		prev = s
	}

	// Keep whichever representation is smallest: the delta stream, its
	// deflate, the deflated byte-plane transpose, or (for small uniform
	// sets where per-sum overhead costs more than it saves) the plain
	// sorted sums.
	mode := byte(compactModeRaw)
	body := raw.Bytes()
	if raw.Len() > 0 {
		// The two deflate candidates are independent and each costs tens of
		// milliseconds on a large guest's set, so with a second CPU the
		// transpose runs beside the delta stream. The choice below is made
		// in the same order either way: the frame's bytes do not change.
		var transComp []byte
		var transErr error
		deflateTranspose := func() {
			trans := make([]byte, len(sums)*Size)
			for j := 0; j < Size; j++ {
				col := trans[j*len(sums) : (j+1)*len(sums)]
				for i := range sums {
					col[i] = sums[i][j]
				}
			}
			transComp, transErr = deflateBytes(trans)
		}
		var side sync.WaitGroup
		if runtime.GOMAXPROCS(0) > 1 {
			side.Add(1)
			go func() {
				defer side.Done()
				deflateTranspose()
			}()
		} else {
			deflateTranspose()
		}
		comp, err := deflateBytes(body)
		side.Wait()
		if err != nil {
			return 0, err
		}
		if transErr != nil {
			return 0, transErr
		}
		if len(comp) < len(body) {
			mode = compactModeDeflate
			body = comp
		}
		if len(transComp) < len(body) {
			mode = compactModeTranspose
			body = transComp
		}
		if plainLen := len(sums) * Size; plainLen < len(body) {
			plain := make([]byte, 0, plainLen)
			for _, s := range sums {
				plain = append(plain, s[:]...)
			}
			mode = compactModePlain
			body = plain
		}
	}

	var hdr [compactHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(sums)))
	hdr[4] = mode
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("checksum: compact encode header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return 0, fmt.Errorf("checksum: compact encode body: %w", err)
	}
	return compactHeaderSize + len(body), nil
}

// deflateBytes compresses b with deflate at the default level.
func deflateBytes(b []byte) ([]byte, error) {
	var comp bytes.Buffer
	comp.Grow(len(b) / 2)
	fw, err := flate.NewWriter(&comp, flate.DefaultCompression)
	if err != nil {
		return nil, fmt.Errorf("checksum: compact deflate init: %w", err)
	}
	if _, err := fw.Write(b); err != nil {
		return nil, fmt.Errorf("checksum: compact deflate: %w", err)
	}
	if err := fw.Close(); err != nil {
		return nil, fmt.Errorf("checksum: compact deflate close: %w", err)
	}
	return comp.Bytes(), nil
}

// DecodeSetCompact reads an announcement produced by EncodeSetCompact.
// It consumes exactly one frame from r, never reading past it, so it is safe
// to use mid-stream between protocol messages.
func DecodeSetCompact(r io.Reader) (*Set, error) {
	var hdr [compactHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("checksum: compact decode header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	mode := hdr[4]
	bodyLen := binary.LittleEndian.Uint32(hdr[5:9])
	if n > maxEncodedSums {
		return nil, fmt.Errorf("checksum: compact announcement claims %d sums, limit %d", n, maxEncodedSums)
	}
	if mode > compactModeTranspose {
		return nil, fmt.Errorf("checksum: compact announcement has unknown mode %d", mode)
	}
	// The encoder always picks the representation no larger than the raw
	// delta stream, which itself is at most (1+Size) bytes per sum.
	if maxBody := uint64(n) * (1 + Size); uint64(bodyLen) > maxBody {
		return nil, fmt.Errorf("checksum: compact body length %d exceeds bound %d for %d sums", bodyLen, maxBody, n)
	}
	// An undeflated body spends at least a byte on every sum; say so before
	// anything is sized by a count the peer merely claims.
	if mode != compactModeDeflate && mode != compactModeTranspose && bodyLen < n {
		return nil, fmt.Errorf("checksum: compact body length %d cannot hold %d sums", bodyLen, n)
	}
	// Read as it arrives rather than into a buffer of the claimed length: a
	// header alone may claim a gigabyte.
	body, err := io.ReadAll(io.LimitReader(r, int64(bodyLen)))
	if err == nil && len(body) != int(bodyLen) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("checksum: compact decode body: %w", err)
	}
	if mode == compactModeTranspose {
		return decodeTranspose(body, n)
	}
	var dr io.Reader = bytes.NewReader(body)
	if mode == compactModeDeflate {
		dr = flate.NewReader(dr)
	}
	// Sized by the bytes received, not the count claimed: a deflated body can
	// be much shorter than its sums, and then the map grows as they arrive.
	st := NewSet(int(min(n, bodyLen)))
	var prev, cur Sum
	for i := uint32(0); i < n; i++ {
		prefix := 0
		if mode != compactModePlain {
			var pb [1]byte
			if _, err := io.ReadFull(dr, pb[:]); err != nil {
				return nil, fmt.Errorf("checksum: compact decode sum %d/%d prefix: %w", i, n, err)
			}
			prefix = int(pb[0])
			if prefix > Size {
				return nil, fmt.Errorf("checksum: compact decode sum %d/%d: prefix %d exceeds sum size %d", i, n, prefix, Size)
			}
			if i == 0 && prefix != 0 {
				return nil, fmt.Errorf("checksum: compact decode: first sum has nonzero prefix %d", prefix)
			}
		}
		copy(cur[:prefix], prev[:prefix])
		if _, err := io.ReadFull(dr, cur[prefix:]); err != nil {
			return nil, fmt.Errorf("checksum: compact decode sum %d/%d suffix: %w", i, n, err)
		}
		if i > 0 && bytes.Compare(cur[:], prev[:]) <= 0 {
			return nil, fmt.Errorf("checksum: compact decode sum %d/%d: not strictly ascending", i, n)
		}
		st.Add(cur)
		prev = cur
	}
	// The body must contain exactly the encoded sums: trailing bytes mean a
	// corrupt or non-canonical frame.
	var trailing [1]byte
	if _, err := dr.Read(trailing[:]); err != io.EOF {
		return nil, fmt.Errorf("checksum: compact announcement has trailing bytes")
	}
	if c, ok := dr.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return nil, fmt.Errorf("checksum: compact inflate close: %w", err)
		}
	}
	return st, nil
}

// decodeTranspose inflates a mode-3 body and reassembles the column-major
// byte planes into sums, enforcing the same strict-ascending canonicality
// as the other modes.
func decodeTranspose(body []byte, n uint32) (*Set, error) {
	fr := flate.NewReader(bytes.NewReader(body))
	// Grown as the planes inflate, so a short body claiming millions of sums
	// costs what it inflates to, not what it claims.
	trans, err := io.ReadAll(io.LimitReader(fr, int64(n)*Size+1))
	if err != nil {
		return nil, fmt.Errorf("checksum: compact transpose inflate: %w", err)
	}
	if len(trans) != int(n)*Size {
		return nil, fmt.Errorf("checksum: compact transpose inflates to %d bytes, want %d", len(trans), int(n)*Size)
	}
	if err := fr.Close(); err != nil {
		return nil, fmt.Errorf("checksum: compact transpose close: %w", err)
	}
	st := NewSet(int(n))
	var prev, cur Sum
	for i := 0; i < int(n); i++ {
		for j := 0; j < Size; j++ {
			cur[j] = trans[j*int(n)+i]
		}
		if i > 0 && bytes.Compare(cur[:], prev[:]) <= 0 {
			return nil, fmt.Errorf("checksum: compact transpose sum %d/%d: not strictly ascending", i, n)
		}
		st.Add(cur)
		prev = cur
	}
	return st, nil
}
