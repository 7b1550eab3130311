package core

import (
	"slices"
	"testing"

	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
)

// regionAwayFrom creates regions until one has no replica on machine id.
func regionAwayFrom(t *testing.T, c *Cluster, id int) uint32 {
	t.Helper()
	for i := 0; i < 12; i++ {
		regions, err := c.CreateRegions(0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(c.Machine(0).mapping(regions[0]).Replicas, uint16(id)) {
			return regions[0]
		}
	}
	t.Fatalf("every region has a replica on m%d", id)
	return 0
}

// newReplicaOf returns the machine the CM's mapping of region names that
// old does not, nil while there is none.
func newReplicaOf(c *Cluster, region uint32, old []uint16) *Machine {
	for _, r := range c.Machine(0).mapping(region).Replicas {
		if !slices.Contains(old, r) {
			return c.Machine(int(r))
		}
	}
	return nil
}

// TestRecoveredBlockKeepsANewerCommit: a new backup's data recovery reads a
// block of the region's surviving primary while a transaction holds the lock
// of object X in it, at version v. The transaction commits v+1 and the new
// backup applies it from its COMMIT-BACKUP record; then the read lands. X
// must stay at v+1 at the new backup, its lock bit clear: the backup learned
// every block header from the primary before its first fetch, so the block
// goes through the per-object version gate. Copied wholesale, as a block of
// unknown class would be, it rolls X back to v, locked.
func TestRecoveredBlockKeepsANewerCommit(t *testing.T) {
	c, _ := testCluster(t, recoveryOpts())
	region := regionAwayFrom(t, c, 0)
	client := c.Machine(0)
	addr := writeObjectIn(t, c, client, region, u64b(0))
	c.RunFor(20 * sim.Millisecond)
	old := client.mapping(region).Replicas
	primary := c.Machine(int(old[0]))
	killedAt := c.Now()
	c.Kill(int(old[1]))
	var nb *Machine
	runUntil(t, c, sim.Second, func() bool {
		if nb = newReplicaOf(c, region, old); nb == nil {
			return false
		}
		for _, e := range c.Trace {
			if e.At >= killedAt && e.Event == "data-rec-start" && e.Machine == nb.ID {
				return true
			}
		}
		return false
	})
	rep, pmem := nb.replica(region), primary.replica(region).mem
	off := int(addr.Off)
	v := regionmem.Version(pmem.ReadHeader(off))

	done := false
	var commitErr error
	tx := client.Begin(1)
	tx.Read(addr, 8, func(data []byte, err error) {
		if err != nil {
			tx.Abort()
			commitErr, done = err, true
			return
		}
		tx.Write(addr, u64b(u64(data)+1))
		tx.Commit(func(err error) { commitErr, done = err, true })
	})
	// The fetch reads X's block at the primary while X is locked ...
	runUntil(t, c, sim.Second, func() bool { return regionmem.Locked(pmem.ReadHeader(off)) })
	bs := c.Opts.Layout.BlockSize
	base := off / bs * bs
	read := make([]byte, bs)
	pmem.ReadAt(read, base)
	// ... the commit reaches the new backup ...
	runUntil(t, c, sim.Second, func() bool { return done && regionmem.Version(rep.mem.ReadHeader(off)) == v+1 })
	if commitErr != nil {
		t.Fatalf("the increment did not commit: %v", commitErr)
	}
	if !rep.needsDataRecovery {
		t.Fatal("data recovery ended before the read could land")
	}
	// ... and then the read lands.
	nb.applyRecoveredBlock(rep, base, read)
	if w := rep.mem.ReadHeader(off); regionmem.Version(w) != v+1 || regionmem.Locked(w) {
		t.Fatalf("X at the new backup is at v%d locked=%v after the late landing, want v%d unlocked",
			regionmem.Version(w), regionmem.Locked(w), v+1)
	}
	runUntil(t, c, sim.Second, func() bool { return !rep.needsDataRecovery })
	if a, b := rep.mem.ReadHeader(off), pmem.ReadHeader(off); a != b {
		t.Fatalf("after data recovery X's header is %#x at the new backup, %#x at the primary", a, b)
	}
}

// TestPromotedNewBackupKnowsEveryBlock: with two copies per region, the
// backup of a region with live objects in two size classes dies and a new
// backup re-replicates the region from the surviving primary. When its data
// recovery ends, the new backup's class table equals the primary's. Then the
// primary dies, the new backup is promoted, and its rebuilt allocator must
// hand out only slots whose allocation bit is clear: a backup that knew only
// the blocks claimed after it joined would claim live blocks afresh.
func TestPromotedNewBackupKnowsEveryBlock(t *testing.T) {
	o := recoveryOpts()
	o.Replication = 2
	c, _ := testCluster(t, o)
	region := regionAwayFrom(t, c, 0)
	client := c.Machine(0)
	var small, large []proto.Addr
	for i := 0; i < 20; i++ {
		small = append(small, writeObjectIn(t, c, client, region, u64b(uint64(i+1))))
	}
	for i := 0; i < 5; i++ {
		large = append(large, writeObjectIn(t, c, client, region, make([]byte, 100)))
	}
	c.RunFor(20 * sim.Millisecond)
	old := client.mapping(region).Replicas
	primary := c.Machine(int(old[0]))
	c.Kill(int(old[1]))
	var nb *Machine
	runUntil(t, c, sim.Second, func() bool {
		nb = newReplicaOf(c, region, old)
		return nb != nil && nb.replica(region) != nil && !nb.replica(region).needsDataRecovery
	})
	if got, want := nb.replica(region).mem.Classes(), primary.replica(region).mem.Classes(); !slices.Equal(got, want) {
		t.Fatalf("the new backup's class table is %v, the primary's %v", got, want)
	}

	c.Kill(primary.ID)
	var rep *replica
	runUntil(t, c, sim.Second, func() bool {
		rep = nb.replica(region)
		return rep.primary && rep.alloc != nil && !rep.allocRecovering
	})
	for _, a := range append(small, large...) {
		if !regionmem.Allocated(rep.mem.ReadHeader(int(a.Off))) {
			t.Fatalf("object %v is not allocated at the promoted backup", a)
		}
	}
	// A block of 16-byte slots and a little more; a block of 128-byte ones.
	for _, tc := range []struct{ size, n int }{{8, c.Opts.Layout.BlockSize/16 + 8}, {100, c.Opts.Layout.BlockSize / 128}} {
		for range tc.n {
			off, ok := rep.alloc.Alloc(tc.size)
			if !ok {
				t.Fatalf("the promoted allocator is out of %d-byte slots", tc.size)
			}
			if regionmem.Allocated(rep.mem.ReadHeader(off)) {
				t.Fatalf("the promoted allocator handed out slot %d, whose allocation bit is set", off)
			}
		}
	}
}

// TestBlockClassRidesTheCommitRecord: with two copies per region, every
// block-header message that answers no call is lost, and an allocation
// fills block 0 of a fresh region. The backup classes the block as soon as
// it accepts the allocation's COMMIT-BACKUP record, before truncation
// applies the object. Then the primary dies before any audit: the promoted
// backup's allocator must not hand the live slot out again. A new backup
// re-replicates the region, the promoted primary dies in turn, and both
// objects still read back at the backup promoted after it.
func TestBlockClassRidesTheCommitRecord(t *testing.T) {
	o := recoveryOpts()
	o.Replication = 2
	c, _ := testCluster(t, o)
	region := regionAwayFrom(t, c, 0)
	client := c.Machine(0)
	lost := 0
	for _, m := range c.Machines {
		h := m.tp.reg.Lookup(&proto.BlockHeaderResp{})
		fn := h.Fn
		h.Fn = func(src int, msg interface{}) {
			if msg.(*proto.BlockHeaderResp).ID == 0 {
				lost++
				return
			}
			fn(src, msg)
		}
	}
	old := client.mapping(region).Replicas
	primary, backup := c.Machine(int(old[0])), c.Machine(int(old[1]))
	bk := backup.replica(region)

	var addr proto.Addr
	var commitErr error
	done := false
	tx := client.Begin(0)
	tx.Alloc(8, u64b(1), &proto.Addr{Region: region}, func(a proto.Addr, err error) {
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		addr = a
		tx.Commit(func(err error) { commitErr, done = err, true })
	})
	block := func() int { return int(addr.Off) / c.Opts.Layout.BlockSize }
	runUntil(t, c, sim.Second, func() bool { return addr.Region == region && bk.mem.Class(block()) != 0 })
	if got, want := bk.mem.Class(block()), primary.replica(region).mem.Class(block()); got != want || got != regionmem.SlotSize(8) {
		t.Fatalf("the backup classed block %d as %d, the primary as %d", block(), got, want)
	}
	if regionmem.Allocated(bk.mem.ReadHeader(int(addr.Off))) {
		t.Fatal("the backup learned the class only when truncation applied the object")
	}
	runUntil(t, c, sim.Second, func() bool { return done })
	if commitErr != nil {
		t.Fatalf("commit: %v", commitErr)
	}
	c.RunFor(20 * sim.Millisecond)

	promoted := func(m *Machine) {
		t.Helper()
		runUntil(t, c, sim.Second, func() bool {
			rep := m.replica(region)
			return rep != nil && rep.primary && rep.alloc != nil && !rep.allocRecovering
		})
	}
	c.Kill(primary.ID)
	promoted(backup)
	addr2 := writeObjectIn(t, c, client, region, u64b(999))
	if got := u64(readObject(t, c, client, addr, 8)); got != 1 || addr2 == addr {
		t.Fatalf("the promoted backup gave the live slot %v out again: it reads %d, want 1", addr, got)
	}

	var nb *Machine
	runUntil(t, c, sim.Second, func() bool {
		nb = newReplicaOf(c, region, old)
		return nb != nil && nb.replica(region) != nil && !nb.replica(region).needsDataRecovery
	})
	c.Kill(backup.ID)
	promoted(nb)
	if a, b := u64(readObject(t, c, client, addr, 8)), u64(readObject(t, c, client, addr2, 8)); a != 1 || b != 999 {
		t.Fatalf("after the second promotion the objects read %d and %d, want 1 and 999", a, b)
	}
	if lost != 0 {
		t.Fatalf("%d block-header messages answered no call", lost)
	}
}

// TestClassTablesAgreeAfterPromotion: the primary claims a block for an
// allocation whose transaction aborts, so no commit fills it and only the
// primary classes it. A backup dies and its replacement learns the block
// from the primary's header list in data recovery; the other backup never
// does. Then the primary dies and that other backup is promoted. An
// allocation of another size must not claim the block afresh: the two
// copies' class tables must stay equal, and when the promoted backup dies
// in turn, the replacement, promoted, still reads the object back and its
// allocator hands out no live slot.
func TestClassTablesAgreeAfterPromotion(t *testing.T) {
	c, _ := testCluster(t, recoveryOpts())
	region := regionAwayFrom(t, c, 0)
	client := c.Machine(0)
	old := client.mapping(region).Replicas
	primary, b1 := c.Machine(int(old[0])), c.Machine(int(old[1]))

	tx := primary.Begin(0)
	var claimed proto.Addr
	tx.Alloc(100, make([]byte, 100), &proto.Addr{Region: region}, func(a proto.Addr, err error) {
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		claimed = a
	})
	runUntil(t, c, sim.Second, func() bool { return claimed.Region == region })
	tx.Abort()
	block := int(claimed.Off) / c.Opts.Layout.BlockSize
	class := primary.replica(region).mem.Class(block)

	c.Kill(int(old[2]))
	var nb *Machine
	runUntil(t, c, sim.Second, func() bool {
		nb = newReplicaOf(c, region, old)
		return nb != nil && nb.replica(region) != nil && !nb.replica(region).needsDataRecovery
	})
	if got, want := nb.replica(region).mem.Class(block), b1.replica(region).mem.Class(block); got != class || want != 0 {
		t.Fatalf("block %d is classed %d at the new backup, %d at the old one; want %d and 0", block, got, want, class)
	}

	c.Kill(primary.ID)
	promoted := func(m *Machine) *replica {
		t.Helper()
		var rep *replica
		runUntil(t, c, sim.Second, func() bool {
			rep = m.replica(region)
			return rep != nil && rep.primary && rep.alloc != nil && !rep.allocRecovering
		})
		return rep
	}
	promoted(b1)
	addr := writeObjectIn(t, c, client, region, u64b(7))
	c.RunFor(20 * sim.Millisecond)
	if a, b := b1.replica(region).mem.Classes(), nb.replica(region).mem.Classes(); !slices.Equal(a, b) {
		t.Fatalf("the promoted backup's class table is %v, the new backup's %v", a, b)
	}

	c.Kill(b1.ID)
	rep := promoted(nb)
	if got := u64(readObject(t, c, client, addr, 8)); got != 7 {
		t.Fatalf("the object reads %d at the second promoted primary, want 7", got)
	}
	for range c.Opts.Layout.BlockSize/16 + 8 {
		off, ok := rep.alloc.Alloc(8)
		if !ok {
			t.Fatal("the promoted allocator is out of 16-byte slots")
		}
		if regionmem.Allocated(rep.mem.ReadHeader(off)) {
			t.Fatalf("the promoted allocator handed out slot %d, whose allocation bit is set", off)
		}
	}
}

// TestFreeDuringAllocatorRecoveryFreesOnce: an object X is committed, its
// region's primary dies, and while the promoted backup is still rebuilding
// its free lists a transaction reads X and frees it. The rebuild reads the
// allocation bits as they are when it runs, after that free, so the slot
// must come back once: the block's free list holds as many slots as the
// block has, and two allocations never share a slot.
func TestFreeDuringAllocatorRecoveryFreesOnce(t *testing.T) {
	c, _ := testCluster(t, recoveryOpts())
	region := regionAwayFrom(t, c, 0)
	client := c.Machine(0)
	addr := writeObjectIn(t, c, client, region, u64b(1))
	c.RunFor(20 * sim.Millisecond)
	old := client.mapping(region).Replicas
	backup := c.Machine(int(old[1]))
	c.Kill(int(old[0]))

	rep := backup.replica(region)
	runUntil(t, c, sim.Second, func() bool {
		return rep.primary && rep.allocRecovering && client.primaryOf(region) == backup.ID && !backup.regionBlocked(region)
	})
	var freeErr error
	freed := false
	tx := client.Begin(0)
	tx.Read(addr, 8, func(_ []byte, err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		tx.Free(addr)
		tx.Commit(func(err error) { freeErr, freed = err, true })
	})
	runUntil(t, c, sim.Second, func() bool { return freed })
	if freeErr != nil {
		t.Fatalf("the free did not commit: %v", freeErr)
	}
	if !rep.allocRecovering {
		t.Fatal("allocator recovery was over before the free committed")
	}
	runUntil(t, c, sim.Second, func() bool { return rep.alloc != nil && !rep.allocRecovering })
	if free, slots := rep.alloc.FreeCount(8), c.Opts.Layout.BlockSize/regionmem.SlotSize(8); free != slots {
		t.Fatalf("%d free 8-byte slots after the rebuild, in a block of %d", free, slots)
	}
	a, b := writeObjectIn(t, c, client, region, u64b(2)), writeObjectIn(t, c, client, region, u64b(3))
	if a == b {
		t.Fatalf("two committed allocations both got %v", a)
	}
}
