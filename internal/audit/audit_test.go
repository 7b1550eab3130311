package audit

import (
	"testing"

	"farm/internal/regionmem"
)

// layout returns a small two-block geometry for digest tests.
func layout() regionmem.Layout { return regionmem.Layout{RegionSize: 1 << 12, BlockSize: 1 << 10} }

// write commits a payload at off, maintaining dig incrementally.
func write(mem *regionmem.Region, off int, ver uint64, alloc bool, payload []byte, dig *Digest) {
	mem.CommitWriteDigest(off, ver, alloc, payload, dig)
}

// classed returns a fresh region of layout lo whose blocks blocks are
// classed as slabs of class.
func classed(lo regionmem.Layout, class int, blocks ...int) *regionmem.Region {
	mem := regionmem.NewRegion(lo)
	for _, b := range blocks {
		mem.SetClass(b, class)
	}
	return mem
}

// TestObjectHashSeesEverySingleByteChange: for payloads of every length up
// to 300 bytes, every other value of every byte changes the hash, and so
// do another offset, another header word and one more trailing zero byte.
func TestObjectHashSeesEverySingleByteChange(t *testing.T) {
	const off, word = 4096 + 16, uint64(7)<<1 | 1
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i*131 + 17)
	}
	for n := 0; n <= len(payload); n++ {
		p := payload[:n]
		base := ObjectHash(off, word, p)
		for i := range p {
			orig := p[i]
			for v := 0; v < 256; v++ {
				if p[i] = byte(v); byte(v) != orig && ObjectHash(off, word, p) == base {
					t.Fatalf("length %d: byte %d set to %#x leaves the hash unchanged", n, i, v)
				}
			}
			p[i] = orig
		}
		for _, o := range []int{0, off - 1, off + 1, off + 1<<20} {
			if ObjectHash(o, word, p) == base {
				t.Fatalf("length %d: offset %d hashes like offset %d", n, o, off)
			}
		}
		for bit := 0; bit < 64; bit++ {
			if ObjectHash(off, word^1<<bit, p) == base {
				t.Fatalf("length %d: header word bit %d does not reach the hash", n, bit)
			}
		}
		zeros := make([]byte, n+1)
		if ObjectHash(off, word, zeros[:n]) == ObjectHash(off, word, zeros) {
			t.Fatalf("%d and %d zero bytes hash alike", n, n+1)
		}
	}
}

// TestFoldUnfoldInverse asserts Unfold exactly cancels Fold, in any order.
func TestFoldUnfoldInverse(t *testing.T) {
	var d Digest
	d.Fold(16, 42, []byte{1, 2, 3})
	d.Fold(32, 7, []byte{9})
	d.Unfold(16, 42, []byte{1, 2, 3})
	d.Unfold(32, 7, []byte{9})
	if d.Value() != 0 {
		t.Fatalf("fold/unfold did not cancel: %#x", d.Value())
	}
}

// TestOrderIndependence applies the same set of writes in two different
// orders (with different intermediate states) and requires identical
// digests — the property that lets primaries and backups converge despite
// applying commits in different interleavings.
func TestOrderIndependence(t *testing.T) {
	const class = 16
	lo := layout()
	writes := []struct {
		off int
		ver uint64
		val byte
	}{
		{0, 1, 0xAA}, {16, 1, 0xBB}, {32, 2, 0xCC}, {48, 3, 0xDD}, {64, 1, 0xEE},
	}

	run := func(order []int) (uint64, *regionmem.Region) {
		mem := classed(lo, class, 0)
		var d Digest
		// Fold the empty block in first, as a newly classed block is.
		for off := 0; off+class <= lo.BlockSize; off += class {
			d.Fold(off, regionmem.MaskLock(mem.ReadHeader(off)), mem.Payload(off, class-regionmem.HeaderSize))
		}
		for _, i := range order {
			w := writes[i]
			write(mem, w.off, w.ver, true, []byte{w.val, 0, 0, 0, 0, 0, 0, 0}, &d)
		}
		return d.Value(), mem
	}

	a, memA := run([]int{0, 1, 2, 3, 4})
	b, memB := run([]int{4, 2, 0, 3, 1})
	if a != b {
		t.Fatalf("digest depends on apply order: %#x vs %#x", a, b)
	}
	// And both equal the ground-truth scan.
	if s := ScanRegion(memA); s != a {
		t.Fatalf("incremental %#x != scan %#x", a, s)
	}
	if s := ScanRegion(memB); s != b {
		t.Fatalf("incremental %#x != scan %#x (order B)", b, s)
	}
}

// TestLockBitMasked asserts locking and unlocking an object leaves its
// scan digest untouched (locks legitimately differ across replicas).
func TestLockBitMasked(t *testing.T) {
	lo := layout()
	mem := classed(lo, 16, 0)
	mem.CommitWrite(16, 3, true, []byte{5})
	before := ScanRegion(mem)
	if !mem.TryLock(16, 3) {
		t.Fatal("TryLock failed")
	}
	if got := ScanRegion(mem); got != before {
		t.Fatalf("lock bit changed digest: %#x vs %#x", got, before)
	}
	mem.Unlock(16)
	if got := ScanRegion(mem); got != before {
		t.Fatalf("unlock changed digest: %#x vs %#x", got, before)
	}
}

// TestScanDetectsSilentCorruption flips one payload byte behind the
// incremental digest's back and requires the scan (but not the incremental
// value) to move — the reason cross-replica comparison and the self-check
// both use scans.
func TestScanDetectsSilentCorruption(t *testing.T) {
	lo := layout()
	mem := classed(lo, 16, 0)
	var d Digest
	for off := 0; off+16 <= lo.BlockSize; off += 16 {
		d.Fold(off, 0, mem.Payload(off, 16-regionmem.HeaderSize))
	}
	write(mem, 32, 1, true, []byte{1, 2, 3, 4}, &d)
	if s := ScanRegion(mem); s != d.Value() {
		t.Fatalf("pre-corruption mismatch: inc %#x scan %#x", d.Value(), s)
	}
	corrupt := []byte{0}
	mem.ReadAt(corrupt, 32+regionmem.HeaderSize)
	corrupt[0] ^= 0xFF
	mem.WriteAt(corrupt, 32+regionmem.HeaderSize) // silent corruption
	if s := ScanRegion(mem); s == d.Value() {
		t.Fatal("scan did not detect the corrupted byte")
	}
}

// TestDrillDown asserts the block → object diff localizes exactly the
// divergent slot.
func TestDrillDown(t *testing.T) {
	lo := layout()
	const class = 32
	a, b := classed(lo, class, 0, 2), classed(lo, class, 0, 2)
	for _, mem := range []*regionmem.Region{a, b} {
		mem.CommitWrite(0, 1, true, []byte{1})
		mem.CommitWrite(2*lo.BlockSize+class, 4, true, []byte{7, 7})
	}
	// Diverge one object in block 2.
	targetOff := 2*lo.BlockSize + 3*class
	b.WriteAt([]byte{0x5A}, targetOff+regionmem.HeaderSize+5)

	// The digests of the classed blocks 0 and 2, in block order.
	da := []uint64{BlockDigest(a, 0), BlockDigest(a, 2)}
	db := []uint64{BlockDigest(b, 0), BlockDigest(b, 2)}
	if i := FirstDivergent(da, db); i != 1 {
		t.Fatalf("divergent classed block = #%d, want #1 (block 2)", i)
	}
	const blk = 2
	oa := ObjectDigests(a, blk)
	ob := ObjectDigests(b, blk)
	slot := FirstDivergent(oa, ob)
	if got := blk*lo.BlockSize + slot*class; got != targetOff {
		t.Fatalf("localized offset %d, want %d", got, targetOff)
	}
	if BlockDigest(a, 1) != 0 {
		t.Fatal("an unclassed block scanned to a non-zero digest")
	}
	if FirstDivergent(da, da) != -1 {
		t.Fatal("identical block digests reported divergent")
	}
	if FirstDivergent(oa, oa) != -1 {
		t.Fatal("identical object digests reported divergent")
	}
}

// TestReseed asserts Reseed replaces the incremental value (the repair
// path: force-copied bytes were never folded in, so the digest is rebuilt
// from a scan).
func TestReseed(t *testing.T) {
	var d Digest
	d.Fold(0, 1, []byte{1})
	d.Reseed(0xDEAD)
	if d.Value() != 0xDEAD {
		t.Fatalf("Reseed: got %#x", d.Value())
	}
}

// TestCommitDigestUpdateZeroAlloc pins the per-commit digest update to 0
// allocations, mirroring the trace layer's enqueue-path guard: the hook
// runs on every commit apply at every replica, so an allocation here would
// be a per-transaction regression. The *Digest → DigestSink conversion is
// part of the measured path.
func TestCommitDigestUpdateZeroAlloc(t *testing.T) {
	lo := layout()
	mem := classed(lo, 16, 0)
	mem.WriteHeader(16, 1) // the block is materialized once, before the measured commits
	var d Digest
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ver := uint64(0)
	avg := testing.AllocsPerRun(1000, func() {
		ver++
		mem.CommitWriteDigest(16, ver, true, payload, &d)
	})
	if avg != 0 {
		t.Fatalf("per-commit digest update allocates: %v allocs/op", avg)
	}
}
