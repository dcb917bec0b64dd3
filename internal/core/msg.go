// Package core implements VeCycle's live-migration protocol (§3): an
// iterative pre-copy engine whose first round optionally eliminates
// redundant transfers against a checkpoint stored at the destination.
//
// Source side (§3.2): for every page of the first round, compute a strong
// checksum; if the destination announced that checksum, send only (page
// number, checksum), otherwise send the full page, with the checksum
// attached so the receiver need not recompute it. Later rounds carry only
// pages dirtied while the previous round streamed, always in full — "we
// consider it unlikely that a page updated between copy rounds matches a
// page already present at the destination".
//
// Destination side (§3.3): open the local checkpoint — one checksum per 4 KiB
// block with its file offset — and bootstrap RAM from it, in the background
// when the checksums are the store's own keys; announce the checksum set in
// bulk unless the source named that very checkpoint in its hello; then merge
// incoming messages per Listing 1 — a received checksum that does not match
// the resident frame is looked up in the checkpoint index and the block
// re-read from disk.
package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
)

// ProtocolVersion guards against mixed deployments: a hello of any other
// version is refused with a hello-ack naming both, never negotiated. Version
// 2 has one dialect: the raw announcement and range frames always.
const ProtocolVersion uint16 = 2

// msgType tags each wire message.
type msgType uint8

// Wire message types.
const (
	msgHello        msgType = iota + 1 // source → destination: session parameters
	msgHelloAck                        // destination → source: accept/reject
	msgHashAnnounce                    // destination → source: checksums available locally
	msgPageSum                         // source → destination: page reusable from checkpoint
	msgPageFull                        // source → destination: page payload
	msgRoundEnd                        // source → destination: pre-copy round boundary
	msgDone                            // source → destination: stop-and-copy complete
	msgAck                             // destination → source: merge complete, VM may resume
	msgPageFullZ                       // source → destination: deflate-compressed page payload
	msgPageDelta                       // source → destination: XBZRLE delta against the checkpoint frame
	_                                  // tag 11 is reserved (version 1's compact announcement): a protocol violation
	// Coalesced page-range frames (tags 12-15): one frame carries a
	// contiguous run of 2..MaxRangePages pages that all received the same
	// treatment (checksum-only, full, compressed, delta).
	msgRangeSum   // source → destination: run of checkpoint-reusable pages
	msgRangeFull  // source → destination: run of raw page payloads
	msgRangeFullZ // source → destination: run of deflate-compressed payloads
	msgRangeDelta // source → destination: run of XBZRLE deltas
)

func (m msgType) String() string {
	switch m {
	case msgHello:
		return "hello"
	case msgHelloAck:
		return "hello-ack"
	case msgHashAnnounce:
		return "hash-announce"
	case msgPageSum:
		return "page-sum"
	case msgPageFull:
		return "page-full"
	case msgRoundEnd:
		return "round-end"
	case msgDone:
		return "done"
	case msgAck:
		return "ack"
	case msgPageFullZ:
		return "page-full-z"
	case msgPageDelta:
		return "page-delta"
	case msgRangeSum:
		return "range-sum"
	case msgRangeFull:
		return "range-full"
	case msgRangeFullZ:
		return "range-full-z"
	case msgRangeDelta:
		return "range-delta"
	default:
		return fmt.Sprintf("msg(%d)", uint8(m))
	}
}

// hello carries the session parameters of an outgoing migration.
type hello struct {
	Version   uint16
	VMName    string
	PageSize  uint32
	PageCount uint64
	Alg       checksum.Algorithm
	// Recycle indicates the source wants checkpoint-assisted mode.
	Recycle bool
	// HasRoot says Root follows the flags byte: the manifest root of the
	// source's own complete checkpoint of this VM (checkpoint.Store.Mirror),
	// offered only with Recycle under the store's key algorithm. A
	// destination whose entry of the VM has the same root holds the same key
	// list, says so in its ack (helloAck.ManifestMatch) and announces
	// nothing — §3.2's ping-pong, by name instead of by trust.
	HasRoot bool
	Root    [checkpoint.RootSize]byte
	// PostCopy selects the post-copy protocol (manifest + demand fetch)
	// instead of iterative pre-copy.
	PostCopy bool
}

// The flag bits each handshake frame defines. A version-2 frame with any
// other bit set is a protocol violation: bits 3 and 4 of the hello and bits 2
// and 4 of the hello-ack were version 1's capability offers and acceptances,
// and are retired with them.
const (
	helloFlagBits    = 1 | 2 | 4      // recycle, root follows, post-copy
	helloAckFlagBits = 1 | 2 | 8 | 32 // OK, have-checkpoint, partial, manifest-match
)

// helloAck is the destination's response.
type helloAck struct {
	OK bool
	// Reason explains a rejection.
	Reason string
	// HaveCheckpoint reports whether a checkpoint was found and loaded; a
	// recycle-mode migration degrades to a full first round otherwise.
	HaveCheckpoint bool
	// PartialCheckpoint reports that the checkpoint behind HaveCheckpoint
	// is a salvage image — pages persisted by an interrupted earlier
	// attempt, not a complete guest state. Purely informational: resume is
	// announce-driven (the announcement carries exactly the sums the
	// salvage image holds), so the wire sequence is unchanged; the source
	// uses the bit to skip delta encoding (its mirror of the last complete
	// checkpoint no longer describes the destination's RAM) and to label
	// traces.
	PartialCheckpoint bool
	// ManifestMatch reports that the complete entry the destination opened
	// has the manifest root the hello offered: no announcement follows, the
	// source's own key list is the destination's checksum set. Implies
	// HaveCheckpoint; never set without a root in the hello.
	ManifestMatch bool
}

const maxNameLen = 1024

// writeMsgType emits just the tag byte.
func writeMsgType(w io.Writer, t msgType) error {
	if _, err := w.Write([]byte{byte(t)}); err != nil {
		return fmt.Errorf("core: write %v tag: %w", t, err)
	}
	return nil
}

// readMsgType consumes one tag byte.
func readMsgType(r io.Reader) (msgType, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("core: read message tag: %w", err)
	}
	return msgType(b[0]), nil
}

func writeHello(w io.Writer, h hello) error {
	// Validate before the tag byte goes out: failing after a partial frame
	// would leave the stream desynced for any later traffic.
	if len(h.VMName) > maxNameLen {
		return fmt.Errorf("core: VM name of %d bytes exceeds limit %d", len(h.VMName), maxNameLen)
	}
	if err := writeMsgType(w, msgHello); err != nil {
		return err
	}
	var flags uint8
	if h.Recycle {
		flags |= 1
	}
	if h.HasRoot {
		flags |= 2
	}
	if h.PostCopy {
		flags |= 4
	}
	fields := []interface{}{
		h.Version,
		uint16(len(h.VMName)),
	}
	for _, f := range fields {
		if err := binary.Write(w, binary.LittleEndian, f); err != nil {
			return fmt.Errorf("core: write hello: %w", err)
		}
	}
	if _, err := io.WriteString(w, h.VMName); err != nil {
		return fmt.Errorf("core: write hello name: %w", err)
	}
	rest := []interface{}{h.PageSize, h.PageCount, uint8(h.Alg), flags}
	for _, f := range rest {
		if err := binary.Write(w, binary.LittleEndian, f); err != nil {
			return fmt.Errorf("core: write hello: %w", err)
		}
	}
	if h.HasRoot {
		if _, err := w.Write(h.Root[:]); err != nil {
			return fmt.Errorf("core: write hello root: %w", err)
		}
	}
	return nil
}

// readHello parses a hello after its tag byte has been consumed. Only a hello
// of this version is held to its flag bits: one of another version still
// parses, so validateHello can refuse it in a hello-ack naming both versions.
func readHello(r io.Reader) (hello, error) {
	var h hello
	if err := binary.Read(r, binary.LittleEndian, &h.Version); err != nil {
		return h, fmt.Errorf("core: read hello version: %w", err)
	}
	var nameLen uint16
	if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
		return h, fmt.Errorf("core: read hello name length: %w", err)
	}
	if int(nameLen) > maxNameLen {
		return h, fmt.Errorf("core: hello name of %d bytes exceeds limit %d", nameLen, maxNameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return h, fmt.Errorf("core: read hello name: %w", err)
	}
	h.VMName = string(name)
	var alg uint8
	var flags uint8
	for _, f := range []interface{}{&h.PageSize, &h.PageCount, &alg, &flags} {
		if err := binary.Read(r, binary.LittleEndian, f); err != nil {
			return h, fmt.Errorf("core: read hello: %w", err)
		}
	}
	h.Alg = checksum.Algorithm(alg)
	if h.Version == ProtocolVersion && flags&^helloFlagBits != 0 {
		return h, fmt.Errorf("%w: hello flags %#x set undefined bits", ErrProtocol, flags)
	}
	h.Recycle = flags&1 != 0
	h.HasRoot = flags&2 != 0
	h.PostCopy = flags&4 != 0
	if h.HasRoot {
		// A root names a checkpoint to recycle; without the recycle bit the
		// 32 bytes that follow have no reading.
		if !h.Recycle {
			return h, fmt.Errorf("%w: hello offers a manifest root without recycling", ErrProtocol)
		}
		if _, err := io.ReadFull(r, h.Root[:]); err != nil {
			return h, fmt.Errorf("core: read hello root: %w", err)
		}
	}
	return h, nil
}

func writeHelloAck(w io.Writer, a helloAck) error {
	if err := writeMsgType(w, msgHelloAck); err != nil {
		return err
	}
	var flags uint8
	if a.OK {
		flags |= 1
	}
	if a.HaveCheckpoint {
		flags |= 2
	}
	if a.PartialCheckpoint {
		flags |= 8
	}
	if a.ManifestMatch {
		flags |= 32
	}
	if len(a.Reason) > maxNameLen {
		a.Reason = a.Reason[:maxNameLen]
	}
	if err := binary.Write(w, binary.LittleEndian, flags); err != nil {
		return fmt.Errorf("core: write hello-ack: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(a.Reason))); err != nil {
		return fmt.Errorf("core: write hello-ack reason length: %w", err)
	}
	if _, err := io.WriteString(w, a.Reason); err != nil {
		return fmt.Errorf("core: write hello-ack reason: %w", err)
	}
	return nil
}

// readHelloAck parses a helloAck after its tag byte.
func readHelloAck(r io.Reader) (helloAck, error) {
	var a helloAck
	var flags uint8
	if err := binary.Read(r, binary.LittleEndian, &flags); err != nil {
		return a, fmt.Errorf("core: read hello-ack: %w", err)
	}
	if flags&^helloAckFlagBits != 0 {
		return a, fmt.Errorf("%w: hello-ack flags %#x set undefined bits", ErrProtocol, flags)
	}
	a.OK = flags&1 != 0
	a.HaveCheckpoint = flags&2 != 0
	a.PartialCheckpoint = flags&8 != 0
	a.ManifestMatch = flags&32 != 0
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return a, fmt.Errorf("core: read hello-ack reason length: %w", err)
	}
	if int(n) > maxNameLen {
		return a, fmt.Errorf("core: hello-ack reason of %d bytes exceeds limit %d", n, maxNameLen)
	}
	reason := make([]byte, n)
	if _, err := io.ReadFull(r, reason); err != nil {
		return a, fmt.Errorf("core: read hello-ack reason: %w", err)
	}
	a.Reason = string(reason)
	return a, nil
}

func writeHashAnnounce(w io.Writer, set *checksum.Set) error {
	if err := writeMsgType(w, msgHashAnnounce); err != nil {
		return err
	}
	return checksum.EncodeSet(w, set)
}

// readHashAnnounce parses the bulk checksum set after the tag byte.
func readHashAnnounce(r io.Reader) (*checksum.Set, error) {
	return checksum.DecodeSet(r)
}

// pageHeader is shared by msgPageSum and msgPageFull: the page number and
// its checksum. Sending the checksum with the full page "saves the receiver
// from re-computing the checksum for the received page".
func writePageHeader(w io.Writer, t msgType, page uint64, sum checksum.Sum) error {
	var buf [1 + 8 + checksum.Size]byte
	buf[0] = byte(t)
	binary.LittleEndian.PutUint64(buf[1:9], page)
	copy(buf[9:], sum[:])
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("core: write %v: %w", t, err)
	}
	return nil
}

func writePageSum(w io.Writer, page uint64, sum checksum.Sum) error {
	return writePageHeader(w, msgPageSum, page, sum)
}

func writePageFull(w io.Writer, page uint64, sum checksum.Sum, data []byte) error {
	if err := writePageHeader(w, msgPageFull, page, sum); err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("core: write page payload: %w", err)
	}
	return nil
}

// readPageHeader parses the (page, sum) pair after the tag byte.
func readPageHeader(r io.Reader) (page uint64, sum checksum.Sum, err error) {
	var buf [8 + checksum.Size]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, sum, fmt.Errorf("core: read page header: %w", err)
	}
	page = binary.LittleEndian.Uint64(buf[:8])
	copy(sum[:], buf[8:])
	return page, sum, nil
}

func writeRoundEnd(w io.Writer, round uint32, dirty uint64) error {
	var buf [1 + 4 + 8]byte
	buf[0] = byte(msgRoundEnd)
	binary.LittleEndian.PutUint32(buf[1:5], round)
	binary.LittleEndian.PutUint64(buf[5:], dirty)
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("core: write round-end: %w", err)
	}
	return nil
}

// readRoundEnd parses a round boundary after the tag byte.
func readRoundEnd(r io.Reader) (round uint32, dirty uint64, err error) {
	var buf [4 + 8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, fmt.Errorf("core: read round-end: %w", err)
	}
	return binary.LittleEndian.Uint32(buf[:4]), binary.LittleEndian.Uint64(buf[4:]), nil
}

// flusher is implemented by buffered writers that need explicit flushing at
// protocol turn-taking points.
type flusher interface{ Flush() error }

func flush(w io.Writer) error {
	if f, ok := w.(flusher); ok {
		if err := f.Flush(); err != nil {
			return fmt.Errorf("core: flush: %w", err)
		}
	}
	return nil
}

var _ flusher = (*bufio.Writer)(nil)
