// Package disk models a VM's persistent block device. The paper's testbed
// sidesteps disk migration by serving VM images over NFS (§4.1) and notes
// that, without shared storage, "established techniques can be applied"
// (§3.1, citing XvMotion and CloudNet). This package supplies that missing
// substrate: a block device with write tracking whose migration reuses the
// exact page-granular engine of internal/core — which is also how QEMU's
// block migration piggybacks on the RAM streaming machinery.
//
// A disk is backed by a page array (16 pages per 64 KiB block), so a disk
// migration *is* a memory migration of the backing region: checkpoint
// recycling, deduplication and the ping-pong optimization all apply
// unchanged. sched.Host moves it as the first leg of its VM's migration,
// through the same driver as the RAM — retries, the by-name match of a
// return and the kept departure checkpoint included. Disks churn far slower
// than RAM, so recycled disk checkpoints eliminate nearly all block traffic.
package disk

import (
	"fmt"

	"vecycle/internal/vm"
)

// BlockSize is the device's block size: 64 KiB, 16 memory pages.
const BlockSize = 16 * vm.PageSize

// DiskSuffix distinguishes a disk's stream and checkpoint from its VM's.
// A disk for VM "web-1" migrates and checkpoints under "web-1#disk".
const DiskSuffix = "#disk"

// Disk is a simulated block device.
type Disk struct {
	backing *vm.VM
}

// New creates a device of the given size (a positive multiple of
// BlockSize) for the named VM.
func New(vmName string, sizeBytes int64, seed int64) (*Disk, error) {
	if vmName == "" {
		return nil, fmt.Errorf("disk: empty VM name")
	}
	if sizeBytes <= 0 || sizeBytes%BlockSize != 0 {
		return nil, fmt.Errorf("disk: size %d must be a positive multiple of %d", sizeBytes, BlockSize)
	}
	backing, err := vm.New(vm.Config{Name: vmName + DiskSuffix, MemBytes: sizeBytes, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Disk{backing: backing}, nil
}

// FromBacking wraps an existing backing region (an arrived migration) as a
// disk. The backing VM's name must carry the DiskSuffix.
func FromBacking(backing *vm.VM) (*Disk, error) {
	if !IsDiskName(backing.Name()) {
		return nil, fmt.Errorf("disk: backing name %q lacks the %q suffix", backing.Name(), DiskSuffix)
	}
	return &Disk{backing: backing}, nil
}

// IsDiskName reports whether a migration stream name denotes a disk.
func IsDiskName(name string) bool {
	return len(name) > len(DiskSuffix) && name[len(name)-len(DiskSuffix):] == DiskSuffix
}

// VMName reports the owning VM's name (the suffix stripped).
func (d *Disk) VMName() string {
	n := d.backing.Name()
	return n[:len(n)-len(DiskSuffix)]
}

// Backing exposes the underlying page region for migration. The returned
// VM must be treated as the device's storage, not a guest.
func (d *Disk) Backing() *vm.VM { return d.backing }

// SizeBytes reports the device capacity.
func (d *Disk) SizeBytes() int64 { return d.backing.MemBytes() }

// NumBlocks reports the device size in blocks.
func (d *Disk) NumBlocks() int { return int(d.backing.MemBytes() / BlockSize) }

// ReadBlock copies block i into dst (at least BlockSize long).
func (d *Disk) ReadBlock(i int, dst []byte) {
	d.checkBlock(i)
	for p := 0; p < 16; p++ {
		d.backing.ReadPage(i*16+p, dst[p*vm.PageSize:(p+1)*vm.PageSize])
	}
}

// WriteBlock replaces block i with data (BlockSize bytes).
func (d *Disk) WriteBlock(i int, data []byte) {
	d.checkBlock(i)
	if len(data) != BlockSize {
		panic(fmt.Sprintf("disk: WriteBlock with %d bytes, want %d", len(data), BlockSize))
	}
	for p := 0; p < 16; p++ {
		d.backing.WritePage(i*16+p, data[p*vm.PageSize:(p+1)*vm.PageSize])
	}
}

func (d *Disk) checkBlock(i int) {
	if i < 0 || i >= d.NumBlocks() {
		panic(fmt.Sprintf("disk: block %d out of range [0,%d)", i, d.NumBlocks()))
	}
}

// WriteAt writes data at an arbitrary byte offset, page-aligned writes
// touching only the affected pages. Unaligned edges read-modify-write.
func (d *Disk) WriteAt(data []byte, off int64) error {
	if off < 0 || off+int64(len(data)) > d.SizeBytes() {
		return fmt.Errorf("disk: write [%d,%d) outside device of %d bytes", off, off+int64(len(data)), d.SizeBytes())
	}
	pageBuf := make([]byte, vm.PageSize)
	for len(data) > 0 {
		page := int(off / vm.PageSize)
		inPage := int(off % vm.PageSize)
		n := vm.PageSize - inPage
		if n > len(data) {
			n = len(data)
		}
		d.backing.ReadPage(page, pageBuf)
		copy(pageBuf[inPage:inPage+n], data[:n])
		d.backing.WritePage(page, pageBuf)
		data = data[n:]
		off += int64(n)
	}
	return nil
}

// ReadAt reads len(dst) bytes from the given offset.
func (d *Disk) ReadAt(dst []byte, off int64) error {
	if off < 0 || off+int64(len(dst)) > d.SizeBytes() {
		return fmt.Errorf("disk: read [%d,%d) outside device of %d bytes", off, off+int64(len(dst)), d.SizeBytes())
	}
	pageBuf := make([]byte, vm.PageSize)
	for len(dst) > 0 {
		page := int(off / vm.PageSize)
		inPage := int(off % vm.PageSize)
		n := vm.PageSize - inPage
		if n > len(dst) {
			n = len(dst)
		}
		d.backing.ReadPage(page, pageBuf)
		copy(dst[:n], pageBuf[inPage:inPage+n])
		dst = dst[n:]
		off += int64(n)
	}
	return nil
}

// ContentEqual reports whether two disks hold identical bytes.
func (d *Disk) ContentEqual(other *Disk) bool {
	return d.backing.MemEqual(other.Backing())
}
