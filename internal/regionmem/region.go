package regionmem

import "fmt"

// Region is one region's memory: a table of Layout.Blocks() blocks, each
// nil until it is materialized. A block is materialized (allocated,
// zeroed) the first time a non-zero byte is stored into it; until then it
// reads as zeros and costs nothing, so a replica pays only for the blocks
// it has written. Reads never materialize a block, and neither does a
// write that stores only zeros into a block never written.
//
// Every method takes a region offset. An object never straddles a block
// (the allocator carves each slot from one block), so the header and
// payload methods act inside one block; ReadAt and WriteAt may cross
// blocks.
//
// A region also holds its blocks' size classes, the §5.5 block headers:
// the one table the allocator claims blocks in at the primary, backups
// learn into, and audits, digests and recovery read.
type Region struct {
	blockSize int
	blocks    [][]byte
	// class[b] is the slot size of block b's slab, 0 while b is unclassed.
	// A block's class never changes once set.
	class []int
	// zero is the read view of a block never written: a shared,
	// never-written zero block, which nothing may write through.
	zero []byte
	// materialized counts the non-nil entries of blocks.
	materialized int
}

// zeros backs the read views of blocks never written. Untouched, it is
// zero pages the process never writes; a layout with larger blocks gets
// a zero block of its own.
var zeros [1 << 20]byte

// NewRegion returns a region of layout's geometry with no block
// materialized.
func NewRegion(layout Layout) *Region {
	if err := layout.Validate(); err != nil {
		panic(err)
	}
	r := &Region{blockSize: layout.BlockSize, blocks: make([][]byte, layout.Blocks()), class: make([]int, layout.Blocks())}
	if layout.BlockSize <= len(zeros) {
		r.zero = zeros[:layout.BlockSize:layout.BlockSize]
	} else {
		r.zero = make([]byte, layout.BlockSize)
	}
	return r
}

// RegionOf presents b, a region laid out flat, as a Region whose blocks
// are all materialized as views of b: writes through either reach both.
func RegionOf(layout Layout, b []byte) *Region {
	if len(b) != layout.RegionSize {
		panic(fmt.Sprintf("regionmem: region size %d != layout %d", len(b), layout.RegionSize))
	}
	r := NewRegion(layout)
	for i := range r.blocks {
		r.blocks[i] = b[i*r.blockSize : (i+1)*r.blockSize : (i+1)*r.blockSize]
	}
	r.materialized = len(r.blocks)
	return r
}

// Size returns the region's size in bytes.
func (r *Region) Size() int { return len(r.blocks) * r.blockSize }

// BlockSize returns the size of the region's blocks.
func (r *Region) BlockSize() int { return r.blockSize }

// Materialized returns the number of blocks materialized.
func (r *Region) Materialized() int { return r.materialized }

// IsMaterialized reports whether block b has been materialized.
func (r *Region) IsMaterialized(b int) bool { return r.blocks[b] != nil }

// Class returns block b's slot size: 0 if b is unclassed or not a block
// of the region.
func (r *Region) Class(b int) int {
	if b < 0 || b >= len(r.class) {
		return 0
	}
	return r.class[b]
}

// Classes returns a read view of the class table, indexed by block.
// Nothing may write through it.
func (r *Region) Classes() []int { return r.class }

// SetClass classes block b as a slab of slot size c, and reports whether
// it did: it leaves a classed block as it is, and refuses a block or a
// slot size the layout has no room for (both may come from another
// machine).
func (r *Region) SetClass(b, c int) bool {
	if b < 0 || b >= len(r.class) || r.class[b] != 0 || c < 2*HeaderSize || c > r.blockSize || c&(c-1) != 0 {
		return false
	}
	r.class[b] = c
	return true
}

// ScanWork returns the number of slots in the classed blocks: the slots
// allocator recovery examines, the unit its paced scan charges time
// against.
func (r *Region) ScanWork() int {
	total := 0
	for _, c := range r.class {
		if c != 0 {
			total += r.blockSize / c
		}
	}
	return total
}

// Block returns a read view of block b's bytes: the shared zero block if
// b was never written. Nothing may write through it.
func (r *Region) Block(b int) []byte {
	if blk := r.blocks[b]; blk != nil {
		return blk
	}
	return r.zero
}

// view returns a read view of the block holding off and off's offset in
// it.
func (r *Region) view(off int) ([]byte, int) {
	return r.Block(off / r.blockSize), off % r.blockSize
}

// store returns the block holding off for a write, and off's offset in
// it. A block never written is materialized when the write stores a
// non-zero byte (nonzero); otherwise store returns nil, because storing
// zeros over zeros changes nothing.
func (r *Region) store(off int, nonzero bool) ([]byte, int) {
	b, o := off/r.blockSize, off%r.blockSize
	blk := r.blocks[b]
	if blk == nil {
		if !nonzero {
			return nil, o
		}
		blk = make([]byte, r.blockSize)
		r.blocks[b] = blk
		r.materialized++
	}
	return blk, o
}

// Holds reports whether a header at off lies inside one block of the
// region: an offset from another machine is checked before memory is
// touched.
func (r *Region) Holds(off int) bool {
	return off >= 0 && off < r.Size() && off%r.blockSize <= r.blockSize-HeaderSize
}

// ReadHeader loads the header word of the object at off.
func (r *Region) ReadHeader(off int) uint64 {
	b, o := r.view(off)
	return ReadHeader(b, o)
}

// WriteHeader stores the header word of the object at off.
func (r *Region) WriteHeader(off int, word uint64) {
	if b, o := r.store(off, word != 0); b != nil {
		WriteHeader(b, o, word)
	}
}

// TryLock is the package's TryLock on the object at off.
func (r *Region) TryLock(off int, version uint64) bool {
	w := r.ReadHeader(off)
	if !lockable(w, version) {
		return false
	}
	r.WriteHeader(off, w|lockBit)
	return true
}

// Unlock is the package's Unlock on the object at off.
func (r *Region) Unlock(off int) {
	if w := r.ReadHeader(off); Locked(w) {
		r.WriteHeader(off, w&^lockBit)
	}
}

// CommitWrite is the package's CommitWrite on the object at off.
func (r *Region) CommitWrite(off int, newVersion uint64, allocated bool, payload []byte) {
	word := Compose(newVersion, false, allocated)
	if b, o := r.store(off, word != 0 || !allZero(payload)); b != nil {
		CommitWrite(b, o, newVersion, allocated, payload)
	}
}

// CommitWriteDigest is CommitWrite with an incremental digest update: the
// slot's old state (lock-masked word + full payload extent of its size
// class) is unfolded from the sink, the write installed, and the new state
// folded in — O(1) per mutation, no allocation. A block not classed yet
// at this replica, or a nil sink, degrades to a plain CommitWrite, leaving
// the slot outside the digest domain until its block is classed.
func (r *Region) CommitWriteDigest(off int, newVersion uint64, allocated bool, payload []byte, sink DigestSink) {
	class := r.class[off/r.blockSize]
	if sink == nil || class == 0 {
		r.CommitWrite(off, newVersion, allocated, payload)
		return
	}
	sink.Unfold(off, MaskLock(r.ReadHeader(off)), r.Payload(off, class-HeaderSize))
	r.CommitWrite(off, newVersion, allocated, payload)
	sink.Fold(off, MaskLock(r.ReadHeader(off)), r.Payload(off, class-HeaderSize))
}

// Payload returns a read view of the n payload bytes of the object at off,
// which must lie inside its block. Nothing may write through it, and a
// view taken before the block's first write keeps reading zeros: take it
// afresh after a write.
func (r *Region) Payload(off, n int) []byte {
	b, o := r.view(off)
	return b[o+HeaderSize : o+HeaderSize+n : o+HeaderSize+n]
}

// ReadAt copies the region's bytes from off on into dst, across blocks.
func (r *Region) ReadAt(dst []byte, off int) {
	for len(dst) > 0 {
		b, o := r.view(off)
		n := copy(dst, b[o:])
		dst, off = dst[n:], off+n
	}
}

// WriteAt copies src into the region from off on, across blocks. A block
// never written that src would fill with zeros only is left as it is.
func (r *Region) WriteAt(src []byte, off int) {
	for len(src) > 0 {
		n := min(len(src), r.blockSize-off%r.blockSize)
		if r.blocks[off/r.blockSize] != nil || !allZero(src[:n]) {
			b, o := r.store(off, true)
			copy(b[o:], src[:n])
		}
		src, off = src[n:], off+n
	}
}

// allZero reports whether b holds no non-zero byte.
func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}
