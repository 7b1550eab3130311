package core

import (
	"bytes"
	"testing"

	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
)

// The tests here hold participants to the lifetime of a log record processed
// in place (DESIGN.md §12, ownership rule 1): a decoded record's values are
// its frame's ring bytes until the frame is truncated, and a record kept
// longer has bytes of its own.

// replicaValue returns the payload of addr in m's replica of its region.
func replicaValue(m *Machine, addr proto.Addr, size int) []byte {
	_, data := objectAt(m.replica(addr.Region), int(addr.Off), size)
	return data
}

// TestLockRecordKeptAcrossRestorePowerAppliesItsValues: a transaction reaches
// COMMIT-BACKUP at both backups, and the power fails before its
// COMMIT-PRIMARY: it is recovering when the power returns, and the lock
// records its participants kept decide what recovery installs. Restoring
// power empties every log ring, and a kept record's values were those ring
// bytes, so each one must take its own copy first; otherwise the primary
// installs zeros at COMMIT-RECOVERY and the backups at TRUNCATE-RECOVERY.
func TestLockRecordKeptAcrossRestorePowerAppliesItsValues(t *testing.T) {
	c, region := testCluster(t, Options{NumMachines: 5, Seed: 53})
	prim, coord := primaryAndOutsider(t, c, region)
	old := []byte("oldvalue")
	addr := writeObjectIn(t, c, prim, region, old)
	c.RunFor(20 * sim.Millisecond)
	replicas := prim.mapping(region).Replicas

	val := []byte("survivor")
	var done bool
	var txErr error
	update(t, coord, 1, addr, val, &done, &txErr)
	backedUp := func() bool {
		for _, b := range replicas[1:] {
			rt := c.Machine(int(b)).pend[mtlOfValue(c.Machine(int(b)), val)]
			if rt == nil || rt.saw&proto.SawCommitBackup == 0 {
				return false
			}
		}
		return true
	}
	runUntil(t, c, sim.Second, backedUp)
	if !bytes.Equal(replicaValue(prim, addr, len(old)), old) {
		t.Fatal("test is blind: the primary installed the write before the outage")
	}
	c.PowerFailure()
	c.RunFor(50 * sim.Millisecond)
	c.RestorePower()
	c.RunFor(500 * sim.Millisecond)

	for _, r := range replicas {
		m := c.Machine(int(r))
		if len(m.pend) != 0 {
			t.Fatalf("m%d still holds %d participant entries after recovery", m.ID, len(m.pend))
		}
		if got := replicaValue(m, addr, len(val)); !bytes.Equal(got, val) {
			t.Fatalf("m%d's replica reads %q after recovery committed %q", m.ID, got, val)
		}
	}
}

// mtlOfValue finds, in m's participant entries, the transaction whose lock
// record writes val (the zero key when none does).
func mtlOfValue(m *Machine, val []byte) mtl {
	for k, rt := range m.pend {
		if rt.lock != nil && len(rt.lock.Writes) > 0 && bytes.Equal(rt.lock.Writes[0].Value, val) {
			return k
		}
	}
	return mtl{}
}

// TestReplicatedLockRecordOutlivesItsSourceFrame: a coordinator dies after
// its LOCK record reached a region's primary and its COMMIT-BACKUP one
// backup. Recovery replicates the primary's lock record to the other backup
// (REPLICATE-TX-STATE), decides commit, and that backup installs the record
// at TRUNCATE-RECOVERY. Here that message reaches it only after the primary
// has truncated the transaction, zeroing the frame the record was decoded
// from: the backup must still install the values the coordinator wrote. A
// Clone that shares the Values with the primary's ring bytes installs zeros.
func TestReplicatedLockRecordOutlivesItsSourceFrame(t *testing.T) {
	c, region := testCluster(t, recoveryOpts())
	prim, victim := primaryAndOutsider(t, c, region)
	replicas := prim.mapping(region).Replicas
	addr := writeObjectIn(t, c, prim, region, u64b(0))
	c.RunFor(20 * sim.Millisecond)

	version := regionmem.Version(prim.replica(region).mem.ReadHeader(int(addr.Off)))
	val := bytes.Repeat([]byte{0x5A}, 8)
	id := proto.TxID{Config: victim.config.ID, Machine: uint16(victim.ID), Local: 1 << 40}
	rec := func(typ proto.RecordType) *proto.Record {
		return &proto.Record{Type: typ, Tx: id, Regions: []uint32{region},
			Writes: []proto.ObjectWrite{{Addr: addr, Version: version, Allocated: true, Value: val}}}
	}
	backup, late := c.Machine(int(replicas[1])), c.Machine(int(replicas[2]))
	appendRecord(t, victim, prim.ID, rec(proto.RecLock))
	appendRecord(t, victim, backup.ID, rec(proto.RecCommitBackup))
	runUntil(t, c, sim.Millisecond, func() bool {
		return prim.pend[mtlOf(id)] != nil && backup.pend[mtlOf(id)] != nil
	})

	// Hold the late backup's TRUNCATE-RECOVERY until the primary has
	// truncated the transaction.
	var held func()
	released := false
	h := late.tp.reg.Lookup(&proto.TruncateRecovery{})
	fn := h.Fn
	h.Fn = func(src int, msg interface{}) {
		if !released && msg.(*proto.TruncateRecovery).Tx == id {
			if held == nil {
				held = func() { fn(src, msg) }
			}
			return // and drop the resends meanwhile
		}
		fn(src, msg)
	}
	c.Kill(victim.ID)
	runUntil(t, c, sim.Second, func() bool {
		return held != nil && prim.pend[mtlOf(id)] == nil
	})
	rt := late.pend[mtlOf(id)]
	if rt == nil || rt.lock == nil || rt.saw&(proto.SawLock|proto.SawCommitBackup) != proto.SawLock {
		t.Fatal("test is blind: the late backup holds no replicated lock record")
	}
	released = true
	held()
	if got := replicaValue(late, addr, len(val)); !bytes.Equal(got, val) {
		t.Fatalf("the late backup installed %x from the replicated record, want %x", got, val)
	}
}
