package regionmem_test

// Property test for Rebuild (§5.5 allocator recovery): any sequence of
// Alloc / Free / CommitWrite operations, followed by Rebuild from the
// replicated block headers, must yield an allocator whose live-object set
// matches the original AND whose scanned audit digest matches the digest
// maintained incrementally through every commit — i.e. recovery loses no
// allocator state and no committed bytes. External test package, driving
// only the exported API.

import (
	"math/rand"
	"reflect"
	"testing"

	"farm/internal/audit"
	"farm/internal/regionmem"
)

func TestRebuildProperty(t *testing.T) {
	layout := regionmem.Layout{RegionSize: 1 << 16, BlockSize: 1 << 12}
	sizes := []int{8, 8, 8, 24, 56, 120} // mixed classes, biased small

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mem := regionmem.NewRegion(layout)
		a := regionmem.NewAllocator(layout, mem)
		headers := make(map[int]int) // replicated block → class metadata
		var dig audit.Digest
		// Record headers and fold newly classed blocks into the digest
		// domain as the allocator claims them, exactly like the core
		// layer's allocation hook.
		a.OnNewBlock(func(block, slot int) {
			headers[block] = slot
			for off := block * layout.BlockSize; off+slot <= (block+1)*layout.BlockSize; off += slot {
				dig.Fold(off, regionmem.MaskLock(mem.ReadHeader(off)), mem.Payload(off, slot-regionmem.HeaderSize))
			}
		})

		type obj struct{ off, size int }
		var live []obj
		version := uint64(0)

		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // alloc + commit its first write
				size := sizes[rng.Intn(len(sizes))]
				off, ok := a.Alloc(size)
				if !ok {
					continue
				}
				version++
				payload := make([]byte, size)
				rng.Read(payload)
				mem.CommitWriteDigest(off, version, true, payload, &dig)
				live = append(live, obj{off, size})
			case k < 7 && len(live) > 0: // free: clear alloc bit, return slot
				i := rng.Intn(len(live))
				o := live[i]
				version++
				mem.CommitWriteDigest(o.off, version, false, make([]byte, o.size), &dig)
				a.Free(o.off)
				live = append(live[:i], live[i+1:]...)
			case len(live) > 0: // overwrite an existing object
				o := live[rng.Intn(len(live))]
				version++
				payload := make([]byte, o.size)
				rng.Read(payload)
				mem.CommitWriteDigest(o.off, version, true, payload, &dig)
			}
		}

		// The incremental digest must equal a fresh scan at all times.
		if scan := audit.ScanRegion(mem); scan != dig.Value() {
			t.Fatalf("seed %d: incremental digest %#x != scan %#x", seed, dig.Value(), scan)
		}

		// Recover: rebuild from the replicated headers and a copy of the
		// raw bytes, as a promoted backup holds them.
		flat := make([]byte, layout.RegionSize)
		mem.ReadAt(flat, 0)
		replica := regionmem.RegionOf(layout, flat)
		b := regionmem.Rebuild(layout, replica, headers)

		if got, want := b.LiveObjects(), a.LiveObjects(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: live-object set diverged after Rebuild:\n got %v\nwant %v", seed, got, want)
		}
		if rebuilt := audit.ScanRegion(replica); rebuilt != dig.Value() {
			t.Fatalf("seed %d: rebuild digest %#x != original %#x", seed, rebuilt, dig.Value())
		}
		// The rebuilt allocator must also hand out only slots the original
		// considered free (same free capacity per class).
		for _, size := range sizes {
			if a.FreeCount(size) != b.FreeCount(size) {
				t.Fatalf("seed %d: free count for size %d diverged: %d vs %d",
					seed, size, a.FreeCount(size), b.FreeCount(size))
			}
		}
	}
}
