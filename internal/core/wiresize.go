package core

import (
	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// Exact wire sizes of the protocol's messages. A package test cross-checks
// these constants against bytes actually metered on the wire.
const (
	// RoundEndMsgBytes is a round boundary.
	RoundEndMsgBytes = 1 + 4 + 8
	// DoneMsgBytes and AckMsgBytes are bare tags.
	DoneMsgBytes = 1
	AckMsgBytes  = 1
	// HelloAckMsgBytes is a hello-ack with an empty reason.
	HelloAckMsgBytes = 1 + 1 + 2
)

// HelloMsgBytes reports the size of a hello for a VM name of the given
// length.
func HelloMsgBytes(nameLen int) int {
	return 1 + 2 + 2 + nameLen + 4 + 8 + 1 + 1
}

// AnnounceMsgBytes reports the size of a bulk hash announcement carrying n
// checksums.
func AnnounceMsgBytes(n int) int {
	return 1 + checksum.EncodedSize(n)
}

// RangeHeaderBytes is the fixed header of a page-range frame: tag, start
// page, and one byte holding the page count minus one.
const RangeHeaderBytes = 1 + 8 + 1

// RangeSumMsgBytes reports the size of a range-sum frame carrying n pages:
// header plus one checksum per page.
func RangeSumMsgBytes(n int) int {
	return RangeHeaderBytes + n*checksum.Size
}

// RangeFullMsgBytes reports the size of a range-full frame carrying n
// pages: header, one checksum per page, and the concatenated raw payloads.
func RangeFullMsgBytes(n int) int {
	return RangeSumMsgBytes(n) + n*vm.PageSize
}
