// Package core implements VeCycle's live-migration protocol (§3): an
// iterative pre-copy engine whose first round optionally eliminates
// redundant transfers against a checkpoint stored at the destination.
//
// Source side (§3.2): for every page of the first round, compute a strong
// checksum; if the destination announced that checksum, send only (page
// number, checksum), otherwise send the full page, with the checksum
// attached so the receiver need not recompute it. Both travel in range
// frames, which carry a run of consecutive pages of one treatment under one
// header (rangeframe.go). Later rounds carry only pages dirtied while the
// previous round streamed, always in full — "we consider it unlikely that a
// page updated between copy rounds matches a page already present at the
// destination".
//
// Destination side (§3.3): open the local checkpoint — one checksum per 4 KiB
// block with its file offset, the checksums being the store's own keys — and
// bootstrap RAM from it in the background; announce the checksum set in
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
	"vecycle/internal/vm"
)

// ProtocolVersion guards against mixed deployments: a hello of any other
// version is refused with a hello-ack naming both, never negotiated. Version
// 3 has one dialect and one frame family: the raw announcement, and every page
// in a range frame whose count byte holds count − 1. The hello's algorithm
// byte is fixed at checksum.Default and any other value refused the same way;
// fixing it moved no byte of a stream that already spoke the default, so it
// took no version. Version 4 is version 3 less post-copy: the hello's mode bit
// and the manifest and fetch tags are reserved, and a pre-copy stream differs
// from version 3's only in the version field. Version 5 is version 4 less the
// deflated and delta range frames: a page crosses as its digest or as its raw
// bytes, tags 14 and 15 are reserved, and a stream that used neither differs
// from version 4's only in the version field.
const ProtocolVersion uint16 = 5

// msgType tags each wire message.
type msgType uint8

// Wire message types. Tags 4, 5, 9 and 10 were version 2's per-page sum,
// full, deflated and delta frames, tag 11 version 1's compact announcement,
// tags 32 and 33 version 3's post-copy manifest and page fetch, tags 14 and
// 15 version 4's deflated and delta range frames; all are reserved, and a
// reserved tag anywhere in a stream is a protocol violation. The page-range
// frames (tags 12 and 13) are the only frames that carry pages: one frame
// carries a contiguous run of 1..MaxRangePages pages that all received the
// same treatment (checksum-only or full).
const (
	msgHello        msgType = iota + 1 // source → destination: session parameters
	msgHelloAck                        // destination → source: accept/reject
	msgHashAnnounce                    // destination → source: checksums available locally
	_                                  // 4: reserved
	_                                  // 5: reserved
	msgRoundEnd                        // source → destination: pre-copy round boundary
	msgDone                            // source → destination: stop-and-copy complete
	msgAck                             // destination → source: merge complete, VM may resume
	_                                  // 9: reserved
	_                                  // 10: reserved
	_                                  // 11: reserved
	msgRangeSum                        // source → destination: run of checkpoint-reusable pages
	msgRangeFull                       // source → destination: run of raw page payloads
)

func (m msgType) String() string {
	switch m {
	case msgHello:
		return "hello"
	case msgHelloAck:
		return "hello-ack"
	case msgHashAnnounce:
		return "hash-announce"
	case msgRoundEnd:
		return "round-end"
	case msgDone:
		return "done"
	case msgAck:
		return "ack"
	case msgRangeSum:
		return "range-sum"
	case msgRangeFull:
		return "range-full"
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
	// Alg is the checksum-algorithm byte. Every writer puts checksum.Default
	// there (newHello) and validateHello refuses any other value: a page has
	// one digest, and the byte stays so a peer speaking another is refused by
	// name rather than misread.
	Alg uint8
	// Recycle indicates the source wants checkpoint-assisted mode.
	Recycle bool
	// HasRoot says Root follows the flags byte: the manifest root of the
	// source's own complete checkpoint of this VM (checkpoint.Store.Mirror),
	// offered only with Recycle. A
	// destination whose entry of the VM has the same root holds the same key
	// list, says so in its ack (helloAck.ManifestMatch) and announces
	// nothing — §3.2's ping-pong, by name instead of by trust.
	HasRoot bool
	Root    [checkpoint.RootSize]byte
}

// The flag bits each handshake frame defines. A frame of this version with any
// other bit set is a protocol violation: bits 3 and 4 of the hello and bits 2
// and 4 of the hello-ack were version 1's capability offers and acceptances,
// and bit 2 of the hello (mask 4) was version 3's post-copy mode; all are
// retired with them.
const (
	helloFlagBits    = 1 | 2          // recycle, root follows
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
	// attempt, not a complete guest state. A union of the store's entries
	// does not set it: that is a first visit, not a resume. Purely
	// informational: resume is announce-driven (the announcement carries
	// exactly the sums the salvage image holds), so the wire sequence is
	// unchanged; the source uses the bit to label traces.
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

// newHello starts the hello of an outgoing migration of v: this protocol
// version, the guest's geometry and checksum.Default, the one algorithm a
// page is digested under. The caller sets the recycle bit and the root.
func newHello(v *vm.VM) hello {
	return hello{
		Version:   ProtocolVersion,
		VMName:    v.Name(),
		PageSize:  vm.PageSize,
		PageCount: uint64(v.NumPages()),
		Alg:       uint8(checksum.Default),
	}
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
	rest := []interface{}{h.PageSize, h.PageCount, h.Alg, flags}
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
	var flags uint8
	for _, f := range []interface{}{&h.PageSize, &h.PageCount, &h.Alg, &flags} {
		if err := binary.Read(r, binary.LittleEndian, f); err != nil {
			return h, fmt.Errorf("core: read hello: %w", err)
		}
	}
	if h.Version == ProtocolVersion && flags&^helloFlagBits != 0 {
		return h, fmt.Errorf("%w: hello flags %#x set undefined bits", ErrProtocol, flags)
	}
	h.Recycle = flags&1 != 0
	h.HasRoot = flags&2 != 0
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
