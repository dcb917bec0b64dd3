package core

import (
	"bytes"
	"errors"
	"testing"

	"vecycle/internal/checksum"
)

// TestWireSizeConstants cross-checks the exported size constants against
// the actual encoders, so the analytical simulator can never drift from the
// real protocol.
func TestWireSizeConstants(t *testing.T) {
	var buf bytes.Buffer
	sum := checksum.MD5.Page([]byte("x"))

	buf.Reset()
	if err := writePageFull(&buf, 7, sum, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != PageFullMsgBytes {
		t.Errorf("PageFullMsgBytes = %d, encoder wrote %d", PageFullMsgBytes, buf.Len())
	}

	buf.Reset()
	if err := writePageSum(&buf, 7, sum); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != PageSumMsgBytes {
		t.Errorf("PageSumMsgBytes = %d, encoder wrote %d", PageSumMsgBytes, buf.Len())
	}

	buf.Reset()
	if err := writeRoundEnd(&buf, 1, 42); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != RoundEndMsgBytes {
		t.Errorf("RoundEndMsgBytes = %d, encoder wrote %d", RoundEndMsgBytes, buf.Len())
	}

	buf.Reset()
	if err := writeMsgType(&buf, msgDone); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != DoneMsgBytes {
		t.Errorf("DoneMsgBytes = %d, encoder wrote %d", DoneMsgBytes, buf.Len())
	}

	buf.Reset()
	if err := writeHelloAck(&buf, helloAck{OK: true}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != HelloAckMsgBytes {
		t.Errorf("HelloAckMsgBytes = %d, encoder wrote %d", HelloAckMsgBytes, buf.Len())
	}

	buf.Reset()
	h := hello{Version: ProtocolVersion, VMName: "vm-name", PageSize: 4096, PageCount: 10, Alg: checksum.MD5}
	if err := writeHello(&buf, h); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != HelloMsgBytes(len(h.VMName)) {
		t.Errorf("HelloMsgBytes(%d) = %d, encoder wrote %d", len(h.VMName), HelloMsgBytes(len(h.VMName)), buf.Len())
	}

	buf.Reset()
	set := checksum.NewSet(3)
	set.Add(sum)
	set.Add(checksum.MD5.Page([]byte("y")))
	if err := writeHashAnnounce(&buf, set); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != AnnounceMsgBytes(set.Len()) {
		t.Errorf("AnnounceMsgBytes(%d) = %d, encoder wrote %d", set.Len(), AnnounceMsgBytes(set.Len()), buf.Len())
	}
}

func TestMsgTypeString(t *testing.T) {
	for mt, want := range map[msgType]string{
		msgHello:        "hello",
		msgHelloAck:     "hello-ack",
		msgHashAnnounce: "hash-announce",
		msgPageSum:      "page-sum",
		msgPageFull:     "page-full",
		msgRoundEnd:     "round-end",
		msgDone:         "done",
		msgAck:          "ack",
		msgType(11):     "msg(11)", // reserved
		msgType(99):     "msg(99)",
	} {
		if got := mt.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", mt, got, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.00 KiB"},
		{3 << 20, "3.00 MiB"},
		{5 << 30, "5.00 GiB"},
	}
	for _, tc := range cases {
		if got := FormatBytes(tc.n); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := hello{
		Version:   ProtocolVersion,
		VMName:    "desk-42",
		PageSize:  4096,
		PageCount: 1 << 20,
		Alg:       checksum.SHA256,
		Recycle:   true,
	}
	// Without a root the hello is the frame it always was; with one, 32 bytes
	// follow the flags.
	for _, withRoot := range []bool{false, true} {
		buf.Reset()
		in.HasRoot = withRoot
		if withRoot {
			in.Root = [32]byte{1, 2, 3, 31: 0xff}
		}
		if err := writeHello(&buf, in); err != nil {
			t.Fatal(err)
		}
		wantLen := 1 + 2 + 2 + len(in.VMName) + 4 + 8 + 1 + 1
		if withRoot {
			wantLen += 32
		}
		if buf.Len() != wantLen {
			t.Errorf("root=%v: hello is %d bytes, want %d", withRoot, buf.Len(), wantLen)
		}
		tag, err := readMsgType(&buf)
		if err != nil || tag != msgHello {
			t.Fatalf("tag=%v err=%v", tag, err)
		}
		got, err := readHello(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != in {
			t.Errorf("round trip: got %+v, want %+v", got, in)
		}
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := helloAck{OK: false, Reason: "size mismatch", HaveCheckpoint: true, ManifestMatch: true}
	if err := writeHelloAck(&buf, in); err != nil {
		t.Fatal(err)
	}
	tag, err := readMsgType(&buf)
	if err != nil || tag != msgHelloAck {
		t.Fatalf("tag=%v err=%v", tag, err)
	}
	got, err := readHelloAck(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Errorf("round trip: got %+v, want %+v", got, in)
	}
}

// TestHandshakeFlagsStrict: a version-2 hello or any hello-ack that sets a
// flag bit version 2 does not define is a protocol violation, the retired
// capability bits included. A version-1 hello with its capability offers
// still parses, so the destination can refuse it by version.
func TestHandshakeFlagsStrict(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, hello{Version: ProtocolVersion, VMName: "vm0", PageSize: 4096, PageCount: 4,
		Alg: checksum.Default, Recycle: true}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()[1:]
	for _, bit := range []byte{8, 16, 32, 64, 128} {
		bad := append([]byte(nil), frame...)
		bad[len(bad)-1] |= bit
		if _, err := readHello(bytes.NewReader(bad)); !errors.Is(err, ErrProtocol) {
			t.Errorf("hello flag bit %#x: err = %v, want ErrProtocol", bit, err)
		}
		v1 := append([]byte(nil), bad...)
		v1[0] = 1
		if h, err := readHello(bytes.NewReader(v1)); err != nil || h.Version != 1 || !h.Recycle {
			t.Errorf("version-1 hello with flag bit %#x: %+v, %v", bit, h, err)
		}
	}
	for _, bit := range []byte{4, 16, 64, 128} {
		if _, err := readHelloAck(bytes.NewReader([]byte{1 | bit, 0, 0})); !errors.Is(err, ErrProtocol) {
			t.Errorf("hello-ack flag bit %#x: err = %v, want ErrProtocol", bit, err)
		}
	}
}
