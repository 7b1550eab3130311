package core

import (
	"errors"
	"slices"
	"testing"

	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
)

// Machine, thread and region ids arrive in log records and messages; the
// peer and region tables are indexed by them. Each test here hands a handler
// an id its table does not hold and checks it is dropped or answered
// "unavailable", and that the machine goes on serving.

const (
	noSuchMachine = 999
	noSuchRegion  = 0x7ffffff0 // far above anything a CM numbers
	unallocated   = 40         // a plausible id the CM never handed out
)

// TestRecordFromUnknownMachine: LOCK, ABORT and an explicit TRUNCATE naming a
// coordinator machine beyond the cluster, written into a real ring. The
// records are processed like any other coordinator's — the LOCK takes the
// lock and its reply goes nowhere, the ABORT releases it, the truncation
// (carrier machine × piggybacked thread, both unknown) reclaims the entry.
// A LOCK naming an offset beyond the region's memory, or allocating at a
// slot size its block does not have, is refused.
func TestRecordFromUnknownMachine(t *testing.T) {
	c, region := testCluster(t, Options{})
	prim, coord := primaryAndOutsider(t, c, region)
	addr := writeObjectIn(t, c, prim, region, []byte("aaaaaaaa"))
	c.RunFor(20 * sim.Millisecond)
	rep := prim.replica(region)
	locked := func() bool { return regionmem.Locked(rep.mem.ReadHeader(int(addr.Off))) }
	version := regionmem.Version(rep.mem.ReadHeader(int(addr.Off)))

	id := proto.TxID{Config: prim.config.ID, Machine: noSuchMachine, Thread: 3, Local: 1}
	appendRecord(t, coord, prim.ID, &proto.Record{
		Type: proto.RecLock, Tx: id, Regions: []uint32{region}, TruncLow: 1,
		Writes: []proto.ObjectWrite{{Addr: addr, Version: version, Allocated: true, Value: []byte("bbbbbbbb")}},
	})
	// A second transaction's LOCK names an offset at the region's end: it is
	// refused, and no memory is touched.
	bad := proto.TxID{Config: prim.config.ID, Machine: noSuchMachine, Thread: 3, Local: 2}
	end := proto.Addr{Region: region, Off: uint32(rep.mem.Size())}
	appendRecord(t, coord, prim.ID, &proto.Record{
		Type: proto.RecLock, Tx: bad, Regions: []uint32{region},
		Writes: []proto.ObjectWrite{{Addr: end, Allocated: true, Value: []byte("bbbbbbbb")}},
	})
	c.RunFor(50 * sim.Microsecond)
	if rt := prim.pend[mtlOf(id)]; rt == nil || !locked() {
		t.Fatalf("LOCK record of machine %d not processed: %+v", noSuchMachine, rt)
	}
	if rt := prim.pend[mtlOf(bad)]; rt == nil || !rt.lockRefused {
		t.Fatalf("LOCK record naming offset %d not refused: %+v", end.Off, rt)
	}
	appendRecord(t, coord, prim.ID, &proto.Record{Type: proto.RecAbort, Tx: id})
	appendRecord(t, coord, prim.ID, &proto.Record{Type: proto.RecAbort, Tx: bad})
	// Then a third allocates the object's slot at a slot size its block does not
	// have, as a reservation made at a primary since replaced would: refused.
	other := proto.TxID{Config: prim.config.ID, Machine: noSuchMachine, Thread: 3, Local: 3}
	appendRecord(t, coord, prim.ID, &proto.Record{
		Type: proto.RecLock, Tx: other, Regions: []uint32{region},
		Writes: []proto.ObjectWrite{{Addr: addr, Version: version, Allocated: true, Class: 2 * regionmem.SlotSize(8), Value: []byte("cccccccc")}},
	})
	c.RunFor(50 * sim.Microsecond)
	if rt := prim.pend[mtlOf(other)]; rt == nil || !rt.lockRefused || locked() {
		t.Fatalf("LOCK record naming another slot size not refused: %+v", rt)
	}
	appendRecord(t, coord, prim.ID, &proto.Record{Type: proto.RecAbort, Tx: other})
	// A fourth allocates a slot in a block this primary has not classed:
	// refused, and the block stays unclassed and unwritten.
	fresh := proto.TxID{Config: prim.config.ID, Machine: noSuchMachine, Thread: 3, Local: 4}
	lastBlock := rep.mem.Size()/rep.mem.BlockSize() - 1
	unclassed := proto.Addr{Region: region, Off: uint32(lastBlock * rep.mem.BlockSize())}
	appendRecord(t, coord, prim.ID, &proto.Record{
		Type: proto.RecLock, Tx: fresh, Regions: []uint32{region},
		Writes: []proto.ObjectWrite{{Addr: unclassed, Allocated: true, Class: regionmem.SlotSize(8), Value: []byte("dddddddd")}},
	})
	c.RunFor(50 * sim.Microsecond)
	if rt := prim.pend[mtlOf(fresh)]; rt == nil || !rt.lockRefused || rep.mem.Class(lastBlock) != 0 || rep.mem.IsMaterialized(lastBlock) {
		t.Fatalf("LOCK record allocating in unclassed block %d not refused (class %d): %+v", lastBlock, rep.mem.Class(lastBlock), rt)
	}
	appendRecord(t, coord, prim.ID, &proto.Record{Type: proto.RecAbort, Tx: fresh})
	appendRecord(t, coord, prim.ID, &proto.Record{
		Type: proto.RecTruncate, Tx: proto.TxID{Config: prim.config.ID, Machine: noSuchMachine},
		TruncIDs: []uint64{packTruncID(3, 1), packTruncID(3, 2), packTruncID(3, 3), packTruncID(3, 4), packTruncID(65535, 7)},
	})
	c.RunFor(50 * sim.Microsecond)
	if len(prim.pend) != 0 || locked() {
		t.Fatalf("transaction of machine %d not cleaned up: %d pending, locked=%v", noSuchMachine, len(prim.pend), locked())
	}
	// Recovery messages about that coordinator's transactions are answered.
	replies := c.Counters.Get("sent RECOVERY-VOTE") + c.Counters.Get("sent RECOVERY-DECISION-ACK")
	prim.onRequestVote(coord.ID, &proto.RequestVote{Config: prim.config.ID, Tx: id, Region: region})
	prim.onTruncateRecovery(coord.ID, &proto.TruncateRecovery{Config: prim.config.ID, Tx: id})
	prim.onRecoveryDecision(coord.ID, 0, id, false)
	prim.onTruncateRecovery(coord.ID, &proto.TruncateRecovery{Config: prim.config.ID, Tx: id})
	c.RunFor(sim.Millisecond)
	if got := c.Counters.Get("sent RECOVERY-VOTE") + c.Counters.Get("sent RECOVERY-DECISION-ACK"); got != replies+1 || len(prim.pend) != 0 {
		// (No vote: this machine never ran a recovery. One ack.)
		t.Fatalf("%d replies to recovery messages about machine %d, want 1; %d pending", got-replies, noSuchMachine, len(prim.pend))
	}
	if got := readObject(t, c, coord, addr, 8); string(got) != "aaaaaaaa" {
		t.Fatalf("object after the aborted transaction: %q", got)
	}
	writeObjectIn(t, c, coord, region, []byte("still serving"))
}

// TestMessagesNamingUnknownIDs drives the message handlers that index a table
// by an id taken from the message, and those that touch memory at an object
// offset taken from the message.
func TestMessagesNamingUnknownIDs(t *testing.T) {
	c, region := testCluster(t, Options{})
	prim, coord := primaryAndOutsider(t, c, region)
	cm := c.Machine(0)
	addr := writeObjectIn(t, c, coord, region, []byte("aaaaaaaa"))

	for _, r := range []uint32{unallocated, noSuchRegion, logRegionID(1)} {
		// A read resolves the primary through MAPPING-REQ at the CM, which
		// has no such region; the reader gives up with "unavailable".
		for _, reader := range []*Machine{cm, coord} {
			var err error
			reader.LockFreeRead(0, proto.Addr{Region: r}, 8, func(_ []byte, e error) { err = e })
			runUntil(t, c, 10*sim.Second, func() bool { return err != nil })
			if !errors.Is(err, ErrUnavailable) {
				t.Fatalf("read of region %#x at machine %d: %v, want unavailable", r, reader.ID, err)
			}
		}
		// The MAPPING-REQ service itself, at the CM and at a non-CM, echoes
		// the region in a miss.
		misses := c.Counters.Get("sent MAPPING-RESP")
		cm.onMappingReq(coord.ID, &proto.MappingReq{Region: r})
		prim.onMappingReq(coord.ID, &proto.MappingReq{Region: r})
		c.RunFor(sim.Millisecond)
		if got := c.Counters.Get("sent MAPPING-RESP") - misses; got != 2 || coord.mapping(r) != nil {
			t.Fatalf("region %#x: %d MAPPING-RESP, mapping %v", r, got, coord.mapping(r))
		}
		// A block class and REGION-ACTIVE for a region not hosted: dropped.
		prim.learnClasses(&proto.Record{Writes: []proto.ObjectWrite{{Addr: proto.Addr{Region: r}, Allocated: true, Class: 64}}})
		prim.unblockRegion(r)
		if prim.replica(r) != nil || prim.regionBlocked(r) {
			t.Fatalf("region %#x appeared at machine %d", r, prim.ID)
		}
		// VALIDATE answers "not valid".
		var reply *proto.ValidateReply
		req := &proto.ValidateReq{Addrs: []proto.Addr{{Region: r}}, Versions: []uint64{0}}
		req.ID = coord.call(prim.ID, req, func(resp interface{}, _ error) { reply, _ = resp.(*proto.ValidateReply) })
		sent := c.Counters.Get("sent VALIDATE-REPLY")
		coord.send(prim.ID, req)
		runUntil(t, c, sim.Second, func() bool { return reply != nil })
		if reply.OK || c.Counters.Get("sent VALIDATE-REPLY") != sent+1 {
			t.Fatalf("validation of an object in region %#x: OK=%v", r, reply.OK)
		}
		// Slot RPCs and a transaction allocating there.
		if _, _, err := prim.allocSlotLocal(r, 8); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("slot in region %#x: %v", r, err)
		}
		prim.releaseSlot(proto.Addr{Region: r})
	}

	// Object offsets in a region the primary does hold: VALIDATE of the
	// region's end, or with fewer versions than addresses (the first one
	// valid), answers "not valid"; RELEASE-SLOT of an offset that starts no
	// slot is dropped.
	rep := prim.replica(region)
	version := regionmem.Version(rep.mem.ReadHeader(int(addr.Off)))
	for _, v := range []struct {
		req *proto.ValidateReq
		ok  bool
	}{
		{&proto.ValidateReq{Addrs: []proto.Addr{addr}, Versions: []uint64{version}}, true},
		{&proto.ValidateReq{Addrs: []proto.Addr{{Region: region, Off: uint32(rep.mem.Size())}}, Versions: []uint64{0}}, false},
		{&proto.ValidateReq{Addrs: []proto.Addr{addr, addr}, Versions: []uint64{version}}, false},
	} {
		var reply *proto.ValidateReply
		v.req.ID = coord.call(prim.ID, v.req, func(resp interface{}, _ error) { reply, _ = resp.(*proto.ValidateReply) })
		coord.send(prim.ID, v.req)
		runUntil(t, c, sim.Second, func() bool { return reply != nil })
		if reply.OK != v.ok {
			t.Fatalf("validation of %v at versions %v: OK=%v", v.req.Addrs, v.req.Versions, reply.OK)
		}
	}
	free := rep.alloc.FreeCount(8)
	for _, off := range []uint32{addr.Off + 3, uint32(rep.mem.Size() - 64)} {
		coord.send(prim.ID, &releaseSlotReq{Region: region, Off: off})
	}
	c.RunFor(sim.Millisecond)
	if got := rep.alloc.FreeCount(8); got != free {
		t.Fatalf("free slots %d → %d after releases of offsets that start no slot", free, got)
	}
	// At a backup, a COMMIT-BACKUP record whose allocating writes name a
	// block outside the region or a slot size no block holds, and block
	// headers naming such, leave its class table as it is, and
	// AUDIT-OBJECTS-REQ naming a block outside the region is dropped.
	bk := c.Machine(int(prim.mapping(region).Replicas[1]))
	classes, blocks := slices.Clone(bk.replica(region).mem.Classes()), c.Opts.Layout.Blocks()
	bs := c.Opts.Layout.BlockSize
	last := proto.Addr{Region: region, Off: uint32((blocks - 1) * bs)}
	hostile := proto.TxID{Config: bk.config.ID, Machine: noSuchMachine, Thread: 3, Local: 1}
	appendRecord(t, coord, bk.ID, &proto.Record{
		Type: proto.RecCommitBackup, Tx: hostile, Regions: []uint32{region},
		Writes: []proto.ObjectWrite{
			{Addr: proto.Addr{Region: region, Off: uint32(blocks * bs)}, Allocated: true, Class: 64},
			{Addr: last, Allocated: true, Class: regionmem.HeaderSize},
			{Addr: last, Allocated: true, Class: 2 * bs},
			{Addr: last, Allocated: true, Class: 1 << 31},
		},
	})
	c.RunFor(50 * sim.Microsecond)
	if bk.pend[mtlOf(hostile)] == nil {
		t.Fatal("the hostile COMMIT-BACKUP record was not accepted")
	}
	appendRecord(t, coord, bk.ID, &proto.Record{Type: proto.RecAbort, Tx: hostile})
	appendRecord(t, coord, bk.ID, &proto.Record{
		Type: proto.RecTruncate, Tx: proto.TxID{Config: bk.config.ID, Machine: noSuchMachine},
		TruncIDs: []uint64{packTruncID(3, 1)},
	})
	bk.learnHeaders(bk.replica(region), []proto.BlockHeader{
		{Block: -1, Class: 64}, {Block: blocks, Class: 64}, {Block: blocks - 1, Class: 0},
		{Block: blocks - 1, Class: 24}, {Block: blocks - 1, Class: 2 * bs},
	})
	objects := c.Counters.Get("sent AUDIT-OBJECTS-REPLY")
	for _, b := range []int{-1, blocks, 1 << 40} {
		bk.onAuditObjectsReq(prim.ID, &proto.AuditObjectsReq{Config: bk.config.ID, Region: region, Block: b})
	}
	c.RunFor(sim.Millisecond)
	if !slices.Equal(bk.replica(region).mem.Classes(), classes) || c.Counters.Get("sent AUDIT-OBJECTS-REPLY") != objects ||
		bk.pend[mtlOf(hostile)] != nil {
		t.Fatalf("hostile block classes made the class table %v (was %v); %d AUDIT-OBJECTS-REPLY sent; record kept %v",
			bk.replica(region).mem.Classes(), classes, c.Counters.Get("sent AUDIT-OBJECTS-REPLY")-objects, bk.pend[mtlOf(hostile)] != nil)
	}
	// AUDIT-SNAP listing such headers is answered with a digest per listed
	// block, 0 for each the backup has not classed.
	snaps := c.Counters.Get("sent AUDIT-SNAP-REPLY")
	bk.onAuditSnap(prim.ID, &proto.AuditSnap{Config: bk.config.ID, Region: region, Headers: []proto.BlockHeader{
		{Block: -1, Class: 64}, {Block: blocks, Class: 64}, {Block: blocks - 1, Class: 24},
	}})
	c.RunFor(5 * sim.Millisecond)
	if !slices.Equal(bk.replica(region).mem.Classes(), classes) || c.Counters.Get("sent AUDIT-SNAP-REPLY") != snaps+1 {
		t.Fatalf("hostile AUDIT-SNAP made the class table %v (was %v); %d AUDIT-SNAP-REPLY sent",
			bk.replica(region).mem.Classes(), classes, c.Counters.Get("sent AUDIT-SNAP-REPLY")-snaps)
	}

	// RPC-REPLY, VALIDATE-REPLY and MAPPING-RESP naming a call never issued,
	// or one that already failed, answer nothing: the failed call's done ran
	// once, and a call still pending stays pending.
	dones := 0
	failed := coord.call(prim.ID, &proto.MappingReq{}, func(interface{}, error) { dones++ })
	live := coord.call(prim.ID, &proto.MappingReq{}, func(interface{}, error) { dones++ })
	coord.failCalls(func(pc pendingCall) bool { return pc.id == failed })
	for _, id := range []uint64{0, failed, live + 1, 1<<64 - 1} {
		prim.send(coord.ID, &rpcReply{ID: id, Body: &allocSlotResp{OK: true}})
		prim.send(coord.ID, &proto.ValidateReply{ID: id, OK: true})
		prim.send(coord.ID, &proto.MappingResp{ID: id, Map: proto.RegionMap{Region: unallocated}})
	}
	c.RunFor(sim.Millisecond)
	if dones != 1 || len(coord.calls) != 1 || coord.calls[0].id != live || coord.mapping(unallocated) != nil {
		t.Fatalf("stray answers: %d done calls, %d pending, want 1 and 1", dones, len(coord.calls))
	}
	coord.answer(live, nil)
	// Nor does one answering a call that was answered already.
	prim.send(coord.ID, &rpcReply{ID: live})
	c.RunFor(sim.Millisecond)
	if dones != 2 || len(coord.calls) != 0 {
		t.Fatalf("a second answer: %d done calls, %d pending, want 2 and 0", dones, len(coord.calls))
	}

	// Recovery messages naming a region the table cannot hold, at a machine
	// running recovery, are dropped or answered with an unknown vote; no
	// table grows. A RECOVERY-VOTE naming a call id its sender never issued
	// is collected and answered, and the answer finds no call there.
	prim.startTxRecovery(prim.config.ID)
	c.RunFor(sim.Millisecond)
	tx := proto.TxID{Config: prim.config.ID - 1, Machine: uint16(coord.ID), Local: 1 << 40}
	regions, pend, votes := len(prim.regions), len(prim.pend), c.Counters.Get("sent RECOVERY-VOTE")
	for _, r := range []uint32{maxRegions, 1 << 31} {
		lock := &proto.Record{Type: proto.RecLock, Tx: tx, Regions: []uint32{r}}
		for _, msg := range []interface{}{
			&proto.NeedRecovery{ID: 1, Config: prim.config.ID, Region: r, Txs: []proto.TxSeen{{Tx: tx, Saw: proto.SawLock}}},
			&proto.SendTxState{Config: prim.config.ID, Region: r, Tx: tx, Lock: lock},
			&proto.ReplicateTxState{ID: 1, Config: prim.config.ID, Region: r, Tx: tx, Lock: lock},
			&proto.ReplicateTxStateAck{Config: prim.config.ID, Region: r, Tx: tx},
			&proto.RequestVote{Config: prim.config.ID, Tx: tx, Region: r},
		} {
			prim.tp.reg.Lookup(msg).Fn(coord.ID, msg)
		}
	}
	c.RunFor(sim.Millisecond)
	if len(prim.regions) != regions || len(prim.pend) != pend || len(prim.calls) != 0 || len(coord.calls) != 0 ||
		c.Counters.Get("sent RECOVERY-VOTE") != votes+2 {
		t.Fatalf("regions %d → %d, pending %d → %d, calls %d and %d, %d votes, want 2",
			regions, len(prim.regions), pend, len(prim.pend), len(prim.calls), len(coord.calls), c.Counters.Get("sent RECOVERY-VOTE")-votes)
	}
	coord.send(prim.ID, &proto.RecoveryVote{ID: coord.nextRPC + 100, Config: prim.config.ID, Region: region, Tx: tx, Vote: proto.VoteAbort})
	c.RunFor(10 * sim.Millisecond)
	if vc := prim.recov.votes[tx]; vc == nil || !vc.decided || vc.commit || len(prim.calls) != 0 || len(coord.calls) != 0 || dones != 2 {
		t.Fatalf("vote naming an unissued call: collector %+v, calls %d and %d", vc, len(prim.calls), len(coord.calls))
	}

	// REGIONS-ACTIVE from a machine beyond the cluster never completes the
	// CM's count; an ack from one never completes a NEW-CONFIG collection.
	// A PREPARED from one, or naming a call the CM never issued, answers
	// nothing and commits no region.
	broadcasts := func() uint64 {
		return c.Counters.Get("sent ALL-REGIONS-ACTIVE") + c.Counters.Get("sent NEW-CONFIG-COMMIT") +
			c.Counters.Get("sent ALLOC-REGION-COMMIT")
	}
	before := broadcasts()
	cm.onRegionsActive(noSuchMachine, &proto.RegionsActive{ConfigID: cm.config.ID})
	cm.tp.reg.Lookup(&proto.NewConfigAck{}).Fn(noSuchMachine, &proto.NewConfigAck{ConfigID: cm.config.ID})
	prepared := cm.tp.reg.Lookup(&proto.AllocRegionPrepared{}).Fn
	prepared(noSuchMachine, &proto.AllocRegionPrepared{Region: noSuchRegion, OK: true})
	prepared(1, &proto.AllocRegionPrepared{ID: cm.nextRPC + 100, Region: region, OK: true})
	c.RunFor(sim.Millisecond)
	if got := broadcasts(); got != before || len(cm.calls) != 0 {
		t.Fatalf("machine %d was counted: %d broadcasts, %d calls open", noSuchMachine, got-before, len(cm.calls))
	}
	// A write landing in the log region of a sender beyond the cluster
	// schedules no poll.
	prim.onRemoteWrite(toNVRAM(logRegionID(noSuchMachine)), 0, 8)

	if got := readObject(t, c, prim, addr, 8); string(got) != "aaaaaaaa" {
		t.Fatalf("object afterwards: %q", got)
	}
	writeObjectIn(t, c, coord, region, []byte("still serving"))
}
