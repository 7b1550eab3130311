// Package regionmem implements the FaRM memory layout of §3 and §5.5: the
// global address space is made of regions; each object starts with a 64-bit
// header word holding a lock bit, an allocation bit and a version; regions
// are split into blocks used as slabs for small-object allocation, with
// block headers (object size per block) in every replica and per-slab free
// lists kept at the primary.
//
// A replica's memory is a Region: a table of blocks materialized on their
// first write, and the table of their size classes. The header helpers
// that take plain bytes act on one contiguous stretch: a block, a region
// laid out flat, or the bytes a one-sided RDMA read returned.
package regionmem

import (
	"encoding/binary"
	"fmt"
)

// HeaderSize is the size of the per-object version word.
const HeaderSize = 8

// Header word layout: bit 63 = lock, bit 62 = allocated, bits 0..61 =
// version (§4: "Each object has a 64-bit version that is used for
// concurrency control and replication"; §5.5: "Each object has a bit in its
// header that is set by an allocation").
const (
	lockBit  = uint64(1) << 63
	allocBit = uint64(1) << 62
	verMask  = allocBit - 1
)

// Compose builds a header word.
func Compose(version uint64, locked, allocated bool) uint64 {
	w := version & verMask
	if locked {
		w |= lockBit
	}
	if allocated {
		w |= allocBit
	}
	return w
}

// Locked reports the lock bit.
func Locked(word uint64) bool { return word&lockBit != 0 }

// Allocated reports the allocation bit.
func Allocated(word uint64) bool { return word&allocBit != 0 }

// Version extracts the version number.
func Version(word uint64) uint64 { return word & verMask }

// MaskLock clears the lock bit of a header word. State-integrity digests
// hash lock-masked words: the lock bit is transient coordination state
// that legitimately differs between a primary and its backups.
func MaskLock(word uint64) uint64 { return word &^ lockBit }

// ReadHeader loads the header word of the object at off in b: one block's
// bytes, a region laid out flat, or the bytes a one-sided read returned.
func ReadHeader(b []byte, off int) uint64 {
	return binary.LittleEndian.Uint64(b[off:])
}

// WriteHeader stores the header word of the object at off in b.
func WriteHeader(b []byte, off int, word uint64) {
	binary.LittleEndian.PutUint64(b[off:], word)
}

// TryLock attempts the compare-and-swap a primary performs for a LOCK
// record (§4 step 1) on the object at off in b: it succeeds iff the object
// is unlocked and its version equals version. On success the lock bit is
// set. Region.TryLock is the same on a replica's memory.
func TryLock(b []byte, off int, version uint64) bool {
	w := ReadHeader(b, off)
	if !lockable(w, version) {
		return false
	}
	WriteHeader(b, off, w|lockBit)
	return true
}

func lockable(word, version uint64) bool { return !Locked(word) && Version(word) == version }

// Unlock clears the lock bit of the object at off in b without changing
// version or allocation state (used when a transaction aborts after
// locking).
func Unlock(b []byte, off int) {
	WriteHeader(b, off, ReadHeader(b, off)&^lockBit)
}

// CommitWrite installs a committed write at off in b: the payload is
// copied, the version advanced to newVersion, the allocation bit set as
// given, and the lock released (§4 step 4).
func CommitWrite(b []byte, off int, newVersion uint64, allocated bool, payload []byte) {
	copy(b[off+HeaderSize:], payload)
	WriteHeader(b, off, Compose(newVersion, false, allocated))
}

// DigestSink receives incremental state-digest updates from digest-aware
// memory operations. It is structural (rather than a concrete type from
// the audit package) so regionmem stays dependency-free; internal/audit's
// Digest satisfies it. Both methods take the slot's region offset, its
// lock-masked header word, and its full payload extent.
type DigestSink interface {
	Fold(off int, word uint64, payload []byte)
	Unfold(off int, word uint64, payload []byte)
}

// Layout fixes the geometry of regions. The paper uses 2 GB regions and
// 1 MB blocks; simulations scale both down, preserving the ratios that
// matter (many blocks per region, many objects per block).
type Layout struct {
	RegionSize int
	BlockSize  int
}

// DefaultLayout is the scaled-down simulation geometry.
func DefaultLayout() Layout { return Layout{RegionSize: 1 << 20, BlockSize: 1 << 14} }

// Validate checks the geometry is usable.
func (l Layout) Validate() error {
	if l.BlockSize < 2*HeaderSize || l.RegionSize < l.BlockSize || l.RegionSize%l.BlockSize != 0 {
		return fmt.Errorf("regionmem: invalid layout %+v", l)
	}
	return nil
}

// Blocks returns the number of blocks per region.
func (l Layout) Blocks() int { return l.RegionSize / l.BlockSize }

// sizeClass returns the slot size (header included) for a payload of size
// bytes: the smallest power of two ≥ size + HeaderSize, minimum 16.
func sizeClass(size int) int {
	need := size + HeaderSize
	c := 16
	for c < need {
		c <<= 1
	}
	return c
}

// SlotSize exposes the slot size chosen for a payload size (for tests and
// capacity planning).
func SlotSize(payload int) int { return sizeClass(payload) }

// Allocator manages one region's slab free lists. It lives at the
// region's primary only (§5.5) and claims blocks in the region's class
// table; backups learn a block's class from the commit records of the
// allocation that first fills it, and a promoted primary builds its
// allocator from its table by scanning allocation bits. Claiming a fresh
// block materializes nothing.
type Allocator struct {
	layout Layout
	mem    *Region

	// free maps slot size → offsets of free slots, LIFO.
	free map[int][]int
	// used counts allocated slots per block, to return empty blocks.
	used []int

	// onNewBlock, if set, is called when a block is assigned a size class
	// — the hook the core layer uses to fold the block into the primary's
	// digest domain.
	onNewBlock func(block, slotSize int)
}

// Memory is the memory an allocator manages: a Region, or a region's bytes
// laid out flat (seen through RegionOf).
type Memory interface{ *Region | []byte }

func asRegion[M Memory](layout Layout, mem M) *Region {
	switch m := any(mem).(type) {
	case *Region:
		if m.Size() != layout.RegionSize || m.blockSize != layout.BlockSize {
			panic(fmt.Sprintf("regionmem: region of %d bytes in %d-byte blocks != layout %+v", m.Size(), m.blockSize, layout))
		}
		return m
	default:
		return RegionOf(layout, m.([]byte))
	}
}

// NewAllocator creates an allocator over mem's class table: a block
// already classed joins its class's free list with every slot whose
// allocation bit is clear, in ascending block and slot order — the §5.5
// scan a promoted primary runs. A block never written holds no live slot
// and is not read. Over a fresh region the table is empty and the scan is
// free.
func NewAllocator[M Memory](layout Layout, mem M) *Allocator {
	a := &Allocator{
		layout: layout,
		mem:    asRegion(layout, mem),
		free:   make(map[int][]int),
		used:   make([]int, layout.Blocks()),
	}
	for b, c := range a.mem.class {
		if c == 0 {
			continue
		}
		blk, base := a.mem.Block(b), b*layout.BlockSize
		live := a.mem.IsMaterialized(b)
		for so := 0; so+c <= len(blk); so += c {
			if live && Allocated(ReadHeader(blk, so)) {
				a.used[b]++
			} else {
				a.free[c] = append(a.free[c], base+so)
			}
		}
	}
	return a
}

// Rebuild reconstructs an allocator from a region replica and replicated
// block headers: it classes the blocks headers names, then builds the
// free lists as NewAllocator does.
func Rebuild[M Memory](layout Layout, mem M, headers map[int]int) *Allocator {
	r := asRegion(layout, mem)
	for b, c := range headers {
		r.SetClass(b, c)
	}
	return NewAllocator(layout, r)
}

// OnNewBlock installs the hook called when a block is claimed.
func (a *Allocator) OnNewBlock(fn func(block, slotSize int)) { a.onNewBlock = fn }

// Alloc reserves a slot for a payload of size bytes and returns the object
// offset (of the header). The allocation bit is NOT set here: FaRM sets it
// through the transaction write at commit time; the slot is merely removed
// from the free list so concurrent transactions cannot claim it.
func (a *Allocator) Alloc(size int) (int, bool) {
	c := sizeClass(size)
	if c > a.layout.BlockSize {
		return 0, false
	}
	if lst := a.free[c]; len(lst) > 0 {
		off := lst[len(lst)-1]
		a.free[c] = lst[:len(lst)-1]
		a.used[off/a.layout.BlockSize]++
		return off, true
	}
	// Claim a fresh block as a slab of class c.
	for b, cls := range a.mem.class {
		if cls != 0 {
			continue
		}
		a.mem.class[b] = c
		if a.onNewBlock != nil {
			a.onNewBlock(b, c)
		}
		base := b * a.layout.BlockSize
		slots := a.layout.BlockSize / c
		// Push in reverse so allocation proceeds from the block's start.
		for s := slots - 1; s >= 1; s-- {
			a.free[c] = append(a.free[c], base+s*c)
		}
		a.used[b] = 1
		return base, true
	}
	return 0, false
}

// Free returns a slot to its slab's free list. The caller is responsible
// for having cleared the allocation bit via a committed transaction first.
func (a *Allocator) Free(off int) {
	b := off / a.layout.BlockSize
	c := a.mem.Class(b)
	if c == 0 {
		panic(fmt.Sprintf("regionmem: free of offset %d in unused block", off))
	}
	if off%c != 0 {
		panic(fmt.Sprintf("regionmem: free of misaligned offset %d (class %d)", off, c))
	}
	a.free[c] = append(a.free[c], off)
	a.used[b]--
}

// Slot reports whether off is where a slot starts: inside a block in use,
// at a multiple of its slot size: the only offsets Free accepts.
func (a *Allocator) Slot(off int) bool {
	c := a.mem.Class(off / a.layout.BlockSize)
	return off >= 0 && c != 0 && off%c == 0
}

// FreeCount returns the number of free slots of the class serving payload
// size (diagnostics and tests).
func (a *Allocator) FreeCount(size int) int { return len(a.free[sizeClass(size)]) }

// LiveObjects returns the offsets of all slots whose allocation bit is set,
// in address order (for tests).
func (a *Allocator) LiveObjects() []int {
	var out []int
	for b, c := range a.mem.class {
		if c == 0 || !a.mem.IsMaterialized(b) {
			continue
		}
		blk, base := a.mem.Block(b), b*a.layout.BlockSize
		for so := 0; so+c <= len(blk); so += c {
			if Allocated(ReadHeader(blk, so)) {
				out = append(out, base+so)
			}
		}
	}
	return out
}
