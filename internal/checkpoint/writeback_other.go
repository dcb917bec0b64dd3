//go:build !linux || arm

package checkpoint

import "vecycle/internal/faultfs"

// startWriteback is a no-op where sync_file_range is unavailable: the
// flush's fsync writes the whole segment back.
func startWriteback(faultfs.File, int64, int64) {}
