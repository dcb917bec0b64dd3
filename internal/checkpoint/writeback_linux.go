//go:build linux && !arm

package checkpoint

import (
	"syscall"

	"vecycle/internal/faultfs"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the range's
// dirty pages without waiting for it.
const syncFileRangeWrite = 2

// startWriteback asks the kernel to start writing [off, off+n) of f back to
// the device. Best effort: a file that is not an OS file (an injected one in
// the chaos tests) or a filesystem that refuses just leaves it to the fsync.
func startWriteback(f faultfs.File, off, n int64) {
	sc, ok := f.(syscall.Conn)
	if !ok {
		return
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return
	}
	_ = rc.Control(func(fd uintptr) {
		_ = syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite)
	})
}
