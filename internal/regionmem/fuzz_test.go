package regionmem_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"farm/internal/audit"
	"farm/internal/regionmem"
)

// FuzzRegion runs a schedule of header writes, TryLock/Unlock,
// CommitWriteDigest with a digest on both sides (classing the block first,
// as a backup learning its header does, if it is unclassed), ReadAt and
// WriteAt ranges that straddle blocks, and allocator claims and frees
// against a Region and a flat reference region driven by the byte-slice
// helpers. After every step each read, each digest sum and the two class
// tables must agree on both sides, and the Region must have materialized
// exactly the blocks a non-zero byte was stored into.
func FuzzRegion(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{6, 3, 3, 0, 9, 1, 0, 0, 2, 0, 4, 200, 40, 5, 250, 20, 1})
	f.Add([]byte{1, 0, 0, 2, 0, 1, 0, 0, 5, 255, 0, 4, 255, 3})
	f.Add([]byte{3, 4, 1, 0, 0, 3, 4, 1, 0, 7, 7, 6, 1, 7, 0, 4, 0, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		if err := regionOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzLayout is a small geometry: 16 blocks of 256 bytes.
var fuzzLayout = regionmem.Layout{RegionSize: 1 << 12, BlockSize: 1 << 8}

// opReader hands out the schedule's bytes, zeros once it has run out.
type opReader struct{ b []byte }

func (r *opReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return int(v)
}

// bytes returns n bytes of the schedule: zeros when the selector byte is
// even, so all-zero stores are common.
func (r *opReader) bytes(n int) []byte {
	out := make([]byte, n)
	if r.next()%2 == 1 {
		for i := range out {
			out[i] = byte(r.next()) | 1
		}
	}
	return out
}

func regionOps(ops []byte) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	l := fuzzLayout
	reg := regionmem.NewRegion(l)
	ref := make([]byte, l.RegionSize)
	// refReg sees ref's bytes through RegionOf and holds its class table;
	// the reference's bytes are only ever touched through ref.
	refReg := regionmem.RegionOf(l, ref)
	regAlloc, refAlloc := regionmem.NewAllocator(l, reg), regionmem.NewAllocator(l, refReg)
	var regDig, refDig audit.Digest
	written := make([]bool, l.Blocks())
	// stored notes a store of data at off in the reference.
	stored := func(off int, data []byte) {
		for i, x := range data {
			if x != 0 {
				written[(off+i)/l.BlockSize] = true
			}
		}
	}
	var claimed []int
	classes := []int{16, 32, 64, 128, 256}
	r := &opReader{ops}
	for step := 0; len(r.b) > 0; step++ {
		// header offsets are 8-aligned, so a header never straddles a block.
		hdrOff := (r.next()<<8 | r.next()) * regionmem.HeaderSize % l.RegionSize
		switch op := r.next() % 8; op {
		case 0:
			word := uint64(0)
			if r.next()%2 == 1 {
				word = uint64(r.next())<<56 | uint64(r.next())
			}
			reg.WriteHeader(hdrOff, word)
			regionmem.WriteHeader(ref, hdrOff, word)
			stored(hdrOff, ref[hdrOff:hdrOff+regionmem.HeaderSize])
		case 1:
			version := uint64(r.next() % 3)
			a, b := reg.TryLock(hdrOff, version), regionmem.TryLock(ref, hdrOff, version)
			if a != b {
				return fmt.Errorf("step %d: TryLock(%d, %d) = %v, reference %v", step, hdrOff, version, a, b)
			}
			stored(hdrOff, ref[hdrOff:hdrOff+regionmem.HeaderSize])
		case 2:
			reg.Unlock(hdrOff)
			regionmem.Unlock(ref, hdrOff)
		case 3:
			class, b := classes[r.next()%len(classes)], hdrOff/l.BlockSize
			if reg.SetClass(b, class) != refReg.SetClass(b, class) {
				return fmt.Errorf("step %d: SetClass(%d, %d) differs from the reference", step, b, class)
			}
			class = reg.Class(b)
			off := hdrOff / class * class
			payload := r.bytes(r.next() % (class - regionmem.HeaderSize + 1))
			version, alloc := uint64(r.next()%4), r.next()%2 == 1
			reg.CommitWriteDigest(off, version, alloc, payload, &regDig)
			ext := ref[off+regionmem.HeaderSize : off+class]
			refDig.Unfold(off, regionmem.MaskLock(regionmem.ReadHeader(ref, off)), ext)
			regionmem.CommitWrite(ref, off, version, alloc, payload)
			refDig.Fold(off, regionmem.MaskLock(regionmem.ReadHeader(ref, off)), ext)
			stored(off, ref[off:off+regionmem.HeaderSize+len(payload)])
		case 4, 5:
			off := hdrOff + r.next()%regionmem.HeaderSize
			n := min(r.next()*3, l.RegionSize-off)
			if op == 5 {
				src := r.bytes(n)
				reg.WriteAt(src, off)
				copy(ref[off:], src)
				stored(off, src)
				break
			}
			got := make([]byte, n)
			reg.ReadAt(got, off)
			if !bytes.Equal(got, ref[off:off+n]) {
				return fmt.Errorf("step %d: ReadAt(%d, %d) = %x, reference %x", step, off, n, got, ref[off:off+n])
			}
		case 6:
			size := r.next() % 120
			a, aok := regAlloc.Alloc(size)
			b, bok := refAlloc.Alloc(size)
			if a != b || aok != bok {
				return fmt.Errorf("step %d: Alloc(%d) = %d %v, reference %d %v", step, size, a, aok, b, bok)
			}
			if aok {
				claimed = append(claimed, a)
			}
		case 7:
			if len(claimed) == 0 {
				break
			}
			i := r.next() % len(claimed)
			regAlloc.Free(claimed[i])
			refAlloc.Free(claimed[i])
			claimed = append(claimed[:i], claimed[i+1:]...)
		}
		if err := agree(reg, ref, refReg, &regDig, &refDig, written); err != nil {
			return fmt.Errorf("step %d (op byte %d): %v", step, len(ops)-len(r.b), err)
		}
	}
	// Allocator recovery: over the region's own class table, and from the
	// reference's table as a map over its flat bytes.
	headers := map[int]int{}
	for b, c := range refReg.Classes() {
		if c != 0 {
			headers[b] = c
		}
	}
	regRebuilt := regionmem.NewAllocator(l, reg)
	refRebuilt := regionmem.Rebuild(l, ref, headers)
	if a, b := regRebuilt.LiveObjects(), refRebuilt.LiveObjects(); !reflect.DeepEqual(a, b) {
		return fmt.Errorf("rebuilt live objects %v, reference %v", a, b)
	}
	for _, c := range classes {
		if a, b := regRebuilt.FreeCount(c-regionmem.HeaderSize), refRebuilt.FreeCount(c-regionmem.HeaderSize); a != b {
			return fmt.Errorf("rebuilt free slots of class %d: %d, reference %d", c, a, b)
		}
	}
	// Recovery writes no byte and materializes no block: bytes, class
	// tables, scans and materialization are as they were.
	return agree(reg, ref, refReg, &regDig, &refDig, written)
}

// agree checks that reg reads as ref does, byte for byte, header for
// header and slot payload for slot payload, that both hold the same class
// table, scan to the same digest and carry the same incremental one, and
// that reg materialized exactly the written blocks. None of these reads
// may materialize a block.
func agree(reg *regionmem.Region, ref []byte, refReg *regionmem.Region, regDig, refDig *audit.Digest, written []bool) error {
	l := fuzzLayout
	all := make([]byte, l.RegionSize)
	reg.ReadAt(all, 0)
	if !bytes.Equal(all, ref) {
		return fmt.Errorf("region bytes differ from the reference")
	}
	for b := range l.Blocks() {
		if !bytes.Equal(reg.Block(b), ref[b*l.BlockSize:(b+1)*l.BlockSize]) {
			return fmt.Errorf("block %d view differs from the reference", b)
		}
		class := reg.Class(b)
		if class != refReg.Class(b) {
			return fmt.Errorf("block %d classed %d, reference %d", b, class, refReg.Class(b))
		}
		if class != 0 {
			for off := b * l.BlockSize; off < (b+1)*l.BlockSize; off += class {
				if reg.ReadHeader(off) != regionmem.ReadHeader(ref, off) ||
					!bytes.Equal(reg.Payload(off, class-regionmem.HeaderSize), ref[off+regionmem.HeaderSize:off+class]) {
					return fmt.Errorf("slot %d differs from the reference", off)
				}
			}
		}
	}
	if a, b := audit.ScanRegion(reg), audit.ScanRegion(refReg); a != b {
		return fmt.Errorf("scan digest %#x, reference %#x", a, b)
	}
	if regDig.Value() != refDig.Value() {
		return fmt.Errorf("incremental digest %#x, reference %#x", regDig.Value(), refDig.Value())
	}
	want := 0
	for b, w := range written {
		if w != reg.IsMaterialized(b) {
			return fmt.Errorf("block %d materialized %v, written %v", b, reg.IsMaterialized(b), w)
		}
		if w {
			want++
		}
	}
	if reg.Materialized() != want {
		return fmt.Errorf("%d blocks materialized, %d written", reg.Materialized(), want)
	}
	return nil
}
