package regionmem

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeaderWordBits(t *testing.T) {
	w := Compose(42, true, true)
	if !Locked(w) || !Allocated(w) || Version(w) != 42 {
		t.Fatalf("compose/extract broken: %x", w)
	}
	w = Compose(1<<61, false, false)
	if Locked(w) || Allocated(w) || Version(w) != 1<<61 {
		t.Fatalf("large version broken: %x", w)
	}
}

func TestHeaderQuick(t *testing.T) {
	f := func(v uint64, l, a bool) bool {
		v &= verMask
		w := Compose(v, l, a)
		return Locked(w) == l && Allocated(w) == a && Version(w) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTryLockSemantics(t *testing.T) {
	b := make([]byte, 64)
	WriteHeader(b, 0, Compose(5, false, true))
	if TryLock(b, 0, 4) {
		t.Fatal("locked at wrong version")
	}
	if !TryLock(b, 0, 5) {
		t.Fatal("failed to lock at correct version")
	}
	if TryLock(b, 0, 5) {
		t.Fatal("double lock succeeded")
	}
	Unlock(b, 0)
	w := ReadHeader(b, 0)
	if Locked(w) || Version(w) != 5 || !Allocated(w) {
		t.Fatalf("unlock corrupted header: %x", w)
	}
	if !TryLock(b, 0, 5) {
		t.Fatal("relock after unlock failed")
	}
}

func TestCommitWriteAdvancesVersionAndUnlocks(t *testing.T) {
	b := make([]byte, 64)
	WriteHeader(b, 0, Compose(3, true, true))
	CommitWrite(b, 0, 4, true, []byte("new value"))
	w, data := ReadHeader(b, 0), b[HeaderSize:HeaderSize+9]
	if Locked(w) || Version(w) != 4 || !Allocated(w) {
		t.Fatalf("header after commit: %x", w)
	}
	if string(data) != "new value" {
		t.Fatalf("payload = %q", data)
	}
}

func TestSizeClasses(t *testing.T) {
	cases := map[int]int{0: 16, 8: 16, 9: 32, 24: 32, 56: 64, 120: 128, 1000: 1024}
	for payload, want := range cases {
		if got := SlotSize(payload); got != want {
			t.Errorf("SlotSize(%d) = %d, want %d", payload, got, want)
		}
	}
}

func testLayout() Layout { return Layout{RegionSize: 1 << 16, BlockSize: 1 << 12} }

func TestAllocatorBasics(t *testing.T) {
	l := testLayout()
	r := NewRegion(l)
	a := NewAllocator(l, r)
	off1, ok := a.Alloc(24)
	if !ok || off1 != 0 {
		t.Fatalf("first alloc: %d %v", off1, ok)
	}
	off2, ok := a.Alloc(24)
	if !ok || off2 != 32 {
		t.Fatalf("second alloc in same slab: %d", off2)
	}
	if c := r.Class(off1 / l.BlockSize); c-HeaderSize != 24 {
		t.Fatalf("slot payload = %d", c-HeaderSize)
	}
	// Different class gets a different block.
	off3, ok := a.Alloc(100)
	if !ok || off3 != l.BlockSize {
		t.Fatalf("new class alloc: %d", off3)
	}
	a.Free(off2)
	off4, ok := a.Alloc(20)
	if !ok || off4 != off2 {
		t.Fatalf("free slot not reused: %d vs %d", off4, off2)
	}
}

func TestAllocatorNeverOverlaps(t *testing.T) {
	l := testLayout()
	a := NewAllocator(l, make([]byte, l.RegionSize))
	type span struct{ off, size int }
	var spans []span
	sizes := []int{8, 24, 56, 120, 8, 8, 500, 24}
	for i := 0; i < 200; i++ {
		sz := sizes[i%len(sizes)]
		off, ok := a.Alloc(sz)
		if !ok {
			break
		}
		spans = append(spans, span{off, SlotSize(sz)})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	for i := 1; i < len(spans); i++ {
		if spans[i-1].off+spans[i-1].size > spans[i].off {
			t.Fatalf("overlap: %+v and %+v", spans[i-1], spans[i])
		}
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	l := Layout{RegionSize: 1 << 12, BlockSize: 1 << 12} // one block
	a := NewAllocator(l, make([]byte, l.RegionSize))
	slots := l.BlockSize / 16
	for i := 0; i < slots; i++ {
		if _, ok := a.Alloc(8); !ok {
			t.Fatalf("alloc %d failed early", i)
		}
	}
	if _, ok := a.Alloc(8); ok {
		t.Fatal("alloc beyond capacity succeeded")
	}
	if _, ok := a.Alloc(l.BlockSize); ok {
		t.Fatal("oversized alloc succeeded")
	}
}

func TestOnNewBlockHookAndHeaders(t *testing.T) {
	l := testLayout()
	r := NewRegion(l)
	a := NewAllocator(l, r)
	var hooked [][2]int
	a.OnNewBlock(func(b, c int) { hooked = append(hooked, [2]int{b, c}) })
	a.Alloc(8)
	a.Alloc(8)   // same slab, no new block
	a.Alloc(100) // new block
	if len(hooked) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(hooked))
	}
	want := map[int]int{0: 16, 1: 128}
	if got := headersOf(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("headers = %v, want %v", got, want)
	}
}

// headersOf returns r's class table as the block → class map Rebuild
// takes.
func headersOf(r *Region) map[int]int {
	out := make(map[int]int)
	for b, c := range r.Classes() {
		if c != 0 {
			out[b] = c
		}
	}
	return out
}

// commitAt simulates a committed allocating write: sets alloc bit.
func commitAt(mem []byte, off int) { WriteHeader(mem, off, Compose(1, false, true)) }

func TestRebuildMatchesLiveState(t *testing.T) {
	l := testLayout()
	mem := make([]byte, l.RegionSize)
	orig := RegionOf(l, mem)
	a := NewAllocator(l, orig)
	var live []int
	for i := 0; i < 50; i++ {
		off, ok := a.Alloc(24)
		if !ok {
			t.Fatal("alloc failed")
		}
		if i%3 == 0 {
			// Committed allocation.
			commitAt(mem, off)
			live = append(live, off)
		} else {
			// Aborted: slot stays free-bit-clear; return it.
			a.Free(off)
		}
	}
	r := Rebuild(l, mem, headersOf(orig))
	if got := r.LiveObjects(); !reflect.DeepEqual(got, live) {
		sort.Ints(live)
		if !reflect.DeepEqual(got, live) {
			t.Fatalf("live objects: %v want %v", got, live)
		}
	}
	// Every subsequent allocation from the rebuilt allocator must not
	// collide with a live object.
	taken := map[int]bool{}
	for _, off := range live {
		taken[off] = true
	}
	for {
		off, ok := r.Alloc(24)
		if !ok {
			break
		}
		if taken[off] {
			t.Fatalf("rebuilt allocator handed out live offset %d", off)
		}
		taken[off] = true
	}
}

func TestRebuildFreeCountsQuick(t *testing.T) {
	l := Layout{RegionSize: 1 << 14, BlockSize: 1 << 12}
	f := func(commits []bool) bool {
		if len(commits) > 100 {
			commits = commits[:100]
		}
		mem := make([]byte, l.RegionSize)
		orig := RegionOf(l, mem)
		a := NewAllocator(l, orig)
		liveCount := 0
		for _, c := range commits {
			off, ok := a.Alloc(40)
			if !ok {
				break
			}
			if c {
				commitAt(mem, off)
				liveCount++
			} else {
				a.Free(off)
			}
		}
		r := Rebuild(l, mem, headersOf(orig))
		return len(r.LiveObjects()) == liveCount &&
			r.FreeCount(40) == a.FreeCount(40)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScanWork(t *testing.T) {
	l := testLayout()
	r := NewRegion(l)
	r.SetClass(0, 16)
	r.SetClass(1, 128)
	// A classed block, or a block or a slot size the layout cannot hold,
	// is refused.
	for _, bad := range [][2]int{{0, 32}, {-1, 16}, {l.Blocks(), 16}, {2, 0}, {2, 24}, {2, 2 * l.BlockSize}} {
		if r.SetClass(bad[0], bad[1]) {
			t.Errorf("SetClass(%d, %d) took", bad[0], bad[1])
		}
	}
	want := l.BlockSize/16 + l.BlockSize/128
	if got := r.ScanWork(); got != want {
		t.Fatalf("ScanWork = %d, want %d", got, want)
	}
}

// TestAllocatorOverAClassTable: an allocator built over a region whose
// class table is already set hands out slots in the order Rebuild
// produces from the same map over flat bytes, and a fresh region claims
// block 0 first.
func TestAllocatorOverAClassTable(t *testing.T) {
	l := testLayout()
	headers := map[int]int{3: 64, 1: 16, 7: 64}
	flat := make([]byte, l.RegionSize)
	r := NewRegion(l)
	for b, c := range headers {
		r.SetClass(b, c)
		// Every third slot of each classed block is live, in both.
		for off := b * l.BlockSize; off < (b+1)*l.BlockSize; off += 3 * c {
			commitAt(flat, off)
			r.WriteHeader(off, Compose(1, false, true))
		}
	}
	over, rebuilt := NewAllocator(l, r), Rebuild(l, flat, headers)
	for _, size := range []int{8, 56, 8, 56, 500} {
		for {
			a, aok := over.Alloc(size)
			b, bok := rebuilt.Alloc(size)
			if a != b || aok != bok {
				t.Fatalf("Alloc(%d): %d %v over the class table, %d %v rebuilt", size, a, aok, b, bok)
			}
			if !aok || a/l.BlockSize != 1 && a/l.BlockSize != 3 && a/l.BlockSize != 7 {
				break // exhausted, or a fresh block claimed: the slots of the table are out
			}
			if Allocated(r.ReadHeader(a)) {
				t.Fatalf("Alloc(%d) handed out live slot %d", size, a)
			}
		}
	}
	if off, ok := NewAllocator(l, NewRegion(l)).Alloc(8); !ok || off != 0 {
		t.Fatalf("a fresh region's first slot is %d %v, want block 0's first", off, ok)
	}
}

func TestFreePanicsOnBadOffset(t *testing.T) {
	l := testLayout()
	a := NewAllocator(l, make([]byte, l.RegionSize))
	a.Alloc(8)
	for _, off := range []int{l.BlockSize, 7} { // unused block; misaligned
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Free(%d) did not panic", off)
				}
			}()
			a.Free(off)
		}()
	}
}

// TestRegionMaterializesOnWrite: a block is made by the first non-zero byte
// stored into it and by nothing else; reads, zero stores and a failed lock
// leave it alone, and ReadAt and WriteAt cross blocks.
func TestRegionMaterializesOnWrite(t *testing.T) {
	l := testLayout()
	r := NewRegion(l)
	buf := make([]byte, 2*l.BlockSize)
	r.ReadAt(buf, l.BlockSize/2)
	r.WriteHeader(0, 0)
	r.Unlock(64)
	r.CommitWrite(128, 0, false, make([]byte, 8))
	r.WriteAt(make([]byte, 3*l.BlockSize), 100)
	if r.TryLock(l.BlockSize, 3) || r.ReadHeader(2*l.BlockSize) != 0 || len(r.Payload(16, 8)) != 8 {
		t.Fatal("a region never written does not read as zeros")
	}
	if r.Materialized() != 0 {
		t.Fatalf("reads and zero stores materialized %d blocks", r.Materialized())
	}
	if !r.TryLock(l.BlockSize, 0) || !r.IsMaterialized(1) || r.Materialized() != 1 {
		t.Fatal("a lock did not materialize its block")
	}
	r.Unlock(l.BlockSize)
	r.WriteAt([]byte{1, 2, 3, 4}, 2*l.BlockSize-2)
	got := make([]byte, 4)
	r.ReadAt(got, 2*l.BlockSize-2)
	if !reflect.DeepEqual(got, []byte{1, 2, 3, 4}) || r.Materialized() != 2 {
		t.Fatalf("straddling write read back %v with %d blocks materialized", got, r.Materialized())
	}
	if r.Holds(l.BlockSize-4) || !r.Holds(l.BlockSize-HeaderSize) || r.Holds(l.RegionSize) || r.Holds(-8) {
		t.Fatal("Holds accepts a header across a block end or outside the region")
	}
}
