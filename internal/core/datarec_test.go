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
