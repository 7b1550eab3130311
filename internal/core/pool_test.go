package core

import (
	"bytes"
	"slices"
	"testing"

	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
)

// The tests here hold the pooled participant state to its rule (DESIGN.md
// §12, "Pooled participant state"): a decoded log record and a participant
// entry belong to their machine's pools, and nothing that outlives their
// recycling may point into them.

// churn commits n updates of addr from coord, each with its own value, so
// that every machine holding a replica decodes records into recycled ones.
func churn(t *testing.T, c *Cluster, coord *Machine, addr proto.Addr, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var done bool
		var err error
		update(t, coord, i%coord.Threads(), addr, bytes.Repeat([]byte{byte(i)}, 8), &done, &err)
		runUntil(t, c, sim.Second, func() bool { return done })
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
}

// TestRegionHintSurvivesRecyclingOfItsRecord: a COMMIT-PRIMARY record is not
// kept, so it goes back to the pool once handled; the written-region list it
// left on a participant entry without a lock record is a copy, and stays
// what it was while later records are decoded into that record.
func TestRegionHintSurvivesRecyclingOfItsRecord(t *testing.T) {
	c, region := testCluster(t, Options{})
	prim, coord := primaryAndOutsider(t, c, region)
	addr := writeObjectIn(t, c, prim, region, []byte("aaaaaaaa"))
	c.RunFor(20 * sim.Millisecond)

	id := proto.TxID{Config: prim.config.ID, Machine: uint16(coord.ID), Thread: 5, Local: 1 << 40}
	regions := []uint32{region + 1000, region + 2000}
	appendRecord(t, coord, prim.ID, &proto.Record{Type: proto.RecCommitPrimary, Tx: id, Regions: regions})
	c.RunFor(50 * sim.Microsecond)
	rt := prim.pend[mtlOf(id)]
	if rt == nil || rt.lock != nil || !slices.Equal(rt.regions(), regions) {
		t.Fatalf("COMMIT-PRIMARY without a LOCK: entry %+v", rt)
	}
	churn(t, c, coord, addr, 20)
	if prim.pend[mtlOf(id)] != rt || !slices.Equal(rt.regions(), regions) || !remoteTxTouches(rt, region+2000) {
		t.Fatalf("region hint after its record was recycled: %v, want %v", rt.regions(), regions)
	}
}

// TestSplitTruncationOutlivesItsCarrier: a truncation id split off its
// carrier waits on another worker while the carrier's own shard handles the
// carrier and recycles it, and a record of another coordinator is decoded
// into it. The id still truncates the carrier coordinator's transaction.
func TestSplitTruncationOutlivesItsCarrier(t *testing.T) {
	c, region := testCluster(t, Options{})
	prim, coord := primaryAndOutsider(t, c, region)
	writeObjectIn(t, c, prim, region, []byte("aaaaaaaa"))
	c.RunFor(20 * sim.Millisecond)
	const thread = 3
	var other *Machine // a third coordinator, whose records go to another worker
	for _, m := range c.Machines {
		if m != prim && m != coord && m.ID%prim.Threads() != (coord.ID+thread)%prim.Threads() {
			other = m
			break
		}
	}

	x := proto.TxID{Config: prim.config.ID, Machine: uint16(coord.ID), Thread: thread, Local: 5}
	appendRecord(t, coord, prim.ID, &proto.Record{Type: proto.RecAbort, Tx: x})
	c.RunFor(50 * sim.Microsecond)
	if prim.pend[mtlOf(x)] == nil {
		t.Fatal("ABORT record made no participant entry")
	}
	prim.pool.ByIndex(coord.ID+thread).Do(200*sim.Microsecond, nil)
	appendRecord(t, coord, prim.ID, &proto.Record{
		Type: proto.RecTruncate, Tx: proto.TxID{Config: prim.config.ID, Machine: uint16(coord.ID)},
		TruncIDs: []uint64{packTruncID(thread, x.Local)},
	})
	c.RunFor(20 * sim.Microsecond)
	if prim.pend[mtlOf(x)] == nil {
		t.Fatal("the split truncation did not wait for its held worker")
	}
	y := proto.TxID{Config: prim.config.ID, Machine: uint16(other.ID), Thread: 0, Local: 5}
	appendRecord(t, other, prim.ID, &proto.Record{Type: proto.RecAbort, Tx: y})
	c.RunFor(300 * sim.Microsecond)
	if prim.pend[mtlOf(x)] != nil || !prim.truncWindow(x.Coord()).has(x.Local) {
		t.Fatalf("transaction %v of the carrier's coordinator not truncated", x)
	}
	if prim.pend[mtlOf(y)] == nil || prim.truncWindow(proto.CoordKey{Machine: y.Machine, Thread: thread}).has(x.Local) {
		t.Fatalf("the split truncation reached coordinator %d, whose record reused its carrier", other.ID)
	}
}

// TestRecordHandedToRecoveryOutlivesPoolChurn: the lock record a participant
// sends in SEND-TX-STATE is a clone, unchanged after the transaction
// truncated and a thousand more transactions recycled its original.
func TestRecordHandedToRecoveryOutlivesPoolChurn(t *testing.T) {
	c, region := testCluster(t, Options{})
	prim, coord := primaryAndOutsider(t, c, region)
	addr := writeObjectIn(t, c, prim, region, []byte("aaaaaaaa"))
	c.RunFor(20 * sim.Millisecond)

	var got *proto.Record
	h := coord.tp.reg.Lookup(&proto.SendTxState{})
	fn := h.Fn
	h.Fn = func(src int, msg interface{}) {
		got = msg.(*proto.SendTxState).Lock
		fn(src, msg)
	}
	val := []byte("handed!!")
	var done bool
	var txErr error
	update(t, coord, 1, addr, val, &done, &txErr)
	var id proto.TxID
	var own *proto.Record
	runUntil(t, c, sim.Second, func() bool {
		for _, rt := range prim.pend {
			if rt.lock != nil && bytes.Equal(rt.lock.Writes[0].Value, val) {
				id, own = rt.id, rt.lock
			}
		}
		return own != nil
	})
	prim.onFetchTxState(coord.ID, &proto.FetchTxState{Config: prim.config.ID, Region: region, Tx: id})
	runUntil(t, c, sim.Second, func() bool { return got != nil && done })
	if txErr != nil || got == own {
		t.Fatalf("commit: %v; handed out the entry's own record: %v", txErr, got == own)
	}
	churn(t, c, coord, addr, 1000)
	if got.Type != proto.RecLock || got.Tx != id || len(got.Writes) != 1 || got.Writes[0].Addr != addr ||
		!bytes.Equal(got.Writes[0].Value, val) || !slices.Equal(got.Regions, []uint32{region}) {
		t.Fatalf("record handed to recovery changed: %+v", got)
	}
}

// TestDroppedBatchIsNotRecycled: the records of a batch whose machine died
// before its worker ran never go back to the pool.
func TestDroppedBatchIsNotRecycled(t *testing.T) {
	c, region := testCluster(t, Options{})
	prim, coord := primaryAndOutsider(t, c, region)
	addr := writeObjectIn(t, c, prim, region, []byte("aaaaaaaa"))
	c.RunFor(20 * sim.Millisecond)

	lr := prim.peer(coord.ID).logR
	lr.pollScheduled = true // the test polls
	const thread = 1
	prim.pool.ByIndex(coord.ID+thread).Do(100*sim.Microsecond, nil)
	var done bool
	var txErr error
	update(t, coord, thread, addr, []byte("bbbbbbbb"), &done, &txErr)
	c.RunFor(30 * sim.Microsecond)
	pooled := len(prim.decFree)
	lr.pollFn()
	decoded := len(prim.decFree)
	if decoded >= pooled {
		t.Fatalf("the poll took no pooled record (%d before, %d after)", pooled, decoded)
	}
	c.Kill(prim.ID)
	c.RunFor(200 * sim.Microsecond)
	if len(prim.decFree) != decoded {
		t.Fatalf("%d records went back to a dead machine's pool", len(prim.decFree)-decoded)
	}
	if regionmem.Locked(prim.replica(region).mem.ReadHeader(int(addr.Off))) {
		t.Fatal("the dropped LOCK record was handled")
	}
}
