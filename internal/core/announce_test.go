package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// TestCompactAnnounceRejected: version 1's compact announcement reaches a
// source only from a peer breaking version 2 — behind a hello-ack accepting
// it (flag bits 2 and 4, reserved now), or behind a plain one as tag 11
// (reserved). Either is a protocol violation.
func TestCompactAnnounceRejected(t *testing.T) {
	set := checksum.NewSet(1)
	set.Add(checksum.Sum{1: 0xaa})
	for _, flags := range []byte{1 | 2 | 4 | 16, 1 | 2} {
		reply := bytes.NewBuffer([]byte{byte(msgHelloAck), flags, 0, 0, 11})
		if _, err := checksum.EncodeSetCompact(reply, set); err != nil {
			t.Fatal(err)
		}
		src := newVM(t, "vm0", 4, 1)
		_, err := MigrateSource(context.Background(), readWriter{reply, io.Discard}, src, SourceOptions{Recycle: true})
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("hello-ack flags %#x, then tag 11: err = %v, want ErrProtocol", flags, err)
		}
	}
}

// TestAnnounceBytesAgree pins both sides' announcement accounting to the
// frame's exact size: the tag byte plus the raw encoding of the destination's
// checksum set. The source used to read its transport counter after the
// 64 KiB control reader had already pulled in whatever arrived with the
// hello-ack, so a 16 MiB guest's announcement (64 KiB) counted as almost
// nothing.
func TestAnnounceBytesAgree(t *testing.T) {
	for _, mib := range []int{16, 256} {
		// v1=true is the level kept from when this looped over the two
		// announcement codecs: the raw (v1) codec is the one on the wire.
		t.Run(fmt.Sprintf("%dMiB/v1=true", mib), func(t *testing.T) {
			if mib > 16 && (raceEnabled || testing.Short()) {
				t.Skip("the 256 MiB guest is too slow under -race / -short")
			}
			pages := mib << 20 / vm.PageSize
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(1.0); err != nil {
				t.Fatal(err)
			}
			store := newStore(t)
			if err := store.Save(src); err != nil {
				t.Fatal(err)
			}
			// The announcement carries the checkpoint's distinct sums.
			distinct := checksum.NewSet(pages)
			distinct.AddAll(src.RangeSums(0, pages, checksum.Default, nil))
			want := int64(AnnounceMsgBytes(distinct.Len()))

			dst := newVM(t, "vm0", pages, 2)
			sm, dres := migrate(t, src, dst, SourceOptions{Recycle: true}, DestOptions{Store: store})
			if sm.AnnounceBytes != want || dres.Metrics.AnnounceBytes != want {
				t.Errorf("announcement of %d sums counted as %d bytes at the source, %d at the destination; want %d",
					distinct.Len(), sm.AnnounceBytes, dres.Metrics.AnnounceBytes, want)
			}
		})
	}
}
