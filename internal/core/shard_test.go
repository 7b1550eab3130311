package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"farm/internal/pool"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
)

// Tests for the invariants of per-coordinator-thread log processing
// (machine.go decodeFrames/dispatchShards, DESIGN.md §5).

// handled is one step a participant took on a polled batch, in the order
// it took them: it handled a record of transaction tx (or an explicit
// TRUNCATE carrier), or it truncated tx.
type handled struct {
	src   int
	tx    mtl
	seq   uint64
	trunc bool
	split bool
}

// observePolls makes every poll batch m processes announce its items just
// before they are handled, without touching the production path: the
// carrier pool is replaced (call it on a quiet machine) by one whose
// carriers' runFn logs first, so no unobserved carrier is ever made — and
// every carrier is back in the pool when the machine is quiet again.
func observePolls(m *Machine, log *[]handled) {
	m.polls = pool.Free[pollTask]{New: func() *pollTask {
		pt := &pollTask{m: m}
		pt.runFn = func() {
			for _, p := range pt.batch {
				src := pt.lr.src
				if p.split {
					th, local := unpackTruncID(p.truncID)
					*log = append(*log, handled{src: src, tx: mtl{m: p.tx.Machine, t: th, local: local}, seq: p.seq, trunc: true, split: true})
					continue
				}
				*log = append(*log, handled{src: src, tx: mtlOf(p.rec.Tx), seq: p.seq})
				for _, id := range p.rec.TruncIDs {
					th, local := unpackTruncID(id)
					*log = append(*log, handled{src: src, tx: mtl{m: p.rec.Tx.Machine, t: th, local: local}, seq: p.seq, trunc: true})
				}
			}
			pt.run()
		}
		return pt
	}}
}

// TestShardedLogProcessingKeepsPerThreadOrder is the property test of the
// sharded poll path: three senders run all eight coordinator threads
// against objects one participant is primary or backup for, with random
// gaps so truncation ids ride other threads' records and explicit TRUNCATE
// records. At every participant, each (sender, coordinator thread) is
// handled in ring order, no transaction is truncated before its last
// record was handled, and in the end every backup equals its primary.
func TestShardedLogProcessingKeepsPerThreadOrder(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { shardOrderProperty(t, seed) })
	}
}

func shardOrderProperty(t *testing.T, seed uint64) {
	c := New(Options{NumMachines: 5, Seed: seed})
	regions, err := c.CreateRegions(0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The participant: primary of the first region. Every object lives in
	// a region it holds a replica of.
	part := c.Machine(int(c.Machine(0).mapping(regions[0]).Replicas[0]))
	var addrs []proto.Addr
	for _, r := range regions {
		if part.replica(r) == nil {
			continue
		}
		for i := 0; i < 8; i++ {
			addrs = append(addrs, writeObjectIn(t, c, part, r, u64b(0)))
		}
	}
	c.RunFor(20 * sim.Millisecond)

	logs := make([][]handled, len(c.Machines))
	for i, m := range c.Machines {
		observePolls(m, &logs[i])
	}

	stop := false
	var loop func(m *Machine, thread int, rng *sim.Rand)
	loop = func(m *Machine, thread int, rng *sim.Rand) {
		if stop {
			return
		}
		next := func() {
			// Mostly back to back; now and then long enough for the
			// truncation flush timer to write an explicit TRUNCATE.
			gap := rng.Duration(10 * sim.Microsecond)
			if rng.Intn(8) == 0 {
				gap = 300*sim.Microsecond + rng.Duration(200*sim.Microsecond)
			}
			c.Eng.After(gap, func() { loop(m, thread, rng) })
		}
		tx := m.Begin(thread)
		n := 1 + rng.Intn(3)
		var step func(i int)
		step = func(i int) {
			if i == n {
				tx.Commit(func(error) { next() })
				return
			}
			addr := addrs[rng.Intn(len(addrs))]
			tx.Read(addr, 8, func(data []byte, err error) {
				if err != nil {
					tx.Abort()
					next()
					return
				}
				tx.Write(addr, u64b(u64(data)+1))
				step(i + 1)
			})
		}
		step(0)
	}
	// Hold random workers for random stretches, so that shards of one ring
	// really do run in another order than they were polled in.
	hog := sim.NewRand(seed)
	var hold func()
	hold = func() {
		if stop {
			return
		}
		for _, m := range c.Machines {
			m.pool.ByIndex(hog.Intn(m.Threads())).Do(hog.Duration(40*sim.Microsecond), nil)
		}
		c.Eng.After(hog.Duration(20*sim.Microsecond), hold)
	}
	hold()
	senders := 0
	for _, m := range c.Machines {
		if m == part || senders == 3 {
			continue
		}
		senders++
		for th := 0; th < m.Threads(); th++ {
			loop(m, th, sim.NewRand(seed<<16|uint64(m.ID)<<8|uint64(th)))
		}
	}
	c.RunFor(3 * sim.Millisecond)
	stop = true
	c.RunFor(30 * sim.Millisecond)

	splits := 0
	for i, m := range c.Machines {
		if n := m.polls.InUse(); n != 0 {
			t.Fatalf("m%d: %d observed poll carriers out of the pool", i, n)
		}
		type stream struct {
			src int
			t   uint16
		}
		type txAt struct {
			src int
			tx  mtl
		}
		lastSeq := make(map[stream]uint64)
		truncated := make(map[txAt]bool)
		for _, h := range logs[i] {
			k := txAt{h.src, h.tx}
			if h.trunc {
				truncated[k] = true
				if h.split {
					splits++
				}
				continue
			}
			s := stream{h.src, h.tx.t}
			if last, ok := lastSeq[s]; ok && h.seq <= last {
				t.Fatalf("m%d: sender %d thread %d handled frame %d after frame %d", i, h.src, h.tx.t, h.seq, last)
			}
			lastSeq[s] = h.seq
			if truncated[k] {
				t.Fatalf("m%d: transaction %+v of sender %d was truncated before its record in frame %d was handled", i, h.tx, h.src, h.seq)
			}
		}
		if len(m.pend) != 0 {
			t.Fatalf("m%d: %d transactions never truncated", i, len(m.pend))
		}
	}
	if len(logs[part.ID]) == 0 || splits == 0 || c.Counters.Get("explicit_truncate") == 0 {
		t.Fatalf("run too tame: %d steps at the participant, %d split truncations, %d explicit TRUNCATEs",
			len(logs[part.ID]), splits, c.Counters.Get("explicit_truncate"))
	}
	for _, r := range conclusiveAudit(t, c) {
		if !r.Clean {
			t.Fatalf("backup differs from its primary: %v", r)
		}
	}
}

// appendRecord writes rec into to's ring for from, as from's commit path
// would.
func appendRecord(t *testing.T, from *Machine, to int, rec *proto.Record) {
	t.Helper()
	w := from.peer(to).logW
	buf, ok := w.Begin(proto.RecordSize(rec), -1)
	if !ok {
		t.Fatal("ring full")
	}
	proto.AppendRecord(buf[:0], rec)
	w.Commit(nil)
}

// primaryAndOutsider returns the region's primary and a machine holding no
// replica of it (and not the CM), to act as a remote coordinator.
func primaryAndOutsider(t *testing.T, c *Cluster, region uint32) (prim, out *Machine) {
	t.Helper()
	prim = c.Machine(int(c.Machine(0).mapping(region).Replicas[0]))
	for _, m := range c.Machines {
		if m.replica(region) == nil && !m.IsCM() {
			return prim, m
		}
	}
	t.Fatal("every machine holds a replica of the region")
	return nil, nil
}

// update starts a read-modify-write of addr on the given coordinator
// thread and reports through done/err.
func update(t *testing.T, m *Machine, thread int, addr proto.Addr, val []byte, done *bool, txErr *error) {
	tx := m.Begin(thread)
	tx.Read(addr, len(val), func(_ []byte, err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		tx.Write(addr, val)
		tx.Commit(func(err error) { *done, *txErr = true, err })
	})
}

// TestDrainBarrierWaitsForEveryWorker: a batch polled just ahead of a drain
// sits on the worker of its coordinator thread — not the one the ring's
// thread-0 records go to — behind other work. The drain barrier must not
// fire before that worker has handled it.
func TestDrainBarrierWaitsForEveryWorker(t *testing.T) {
	c, region := testCluster(t, Options{})
	prim, coord := primaryAndOutsider(t, c, region)
	addr := writeObjectIn(t, c, prim, region, []byte("aaaaaaaa"))
	c.RunFor(20 * sim.Millisecond)

	const thread = 3
	hold := 200 * sim.Microsecond
	prim.pool.ByIndex(coord.ID+thread).Do(hold, nil)
	held := c.Now() + hold
	var done bool
	var txErr error
	update(t, coord, thread, addr, []byte("bbbbbbbb"), &done, &txErr)
	c.RunFor(50 * sim.Microsecond)
	if prim.pool.ByIndex(coord.ID+thread).QueueLen() != 1 || len(prim.pend) != 0 {
		t.Fatal("the LOCK record is not waiting behind the held worker")
	}

	fired, handledFirst := false, false
	prim.drainLog(prim.peer(coord.ID).logR, func() { fired, handledFirst = true, len(prim.pend) == 1 })
	runUntil(t, c, sim.Second, func() bool { return fired })
	if !handledFirst || c.Now() < held {
		t.Fatalf("drain barrier fired at %v, before the batch polled ahead of it was handled (its worker was held until %v)", c.Now(), held)
	}
	runUntil(t, c, sim.Second, func() bool { return done })
	if txErr != nil {
		t.Fatalf("commit: %v", txErr)
	}
}

// TestDeathBetweenShardsOfOnePoll cuts power after the first shard of a
// poll was handled and before the second ran. The second rewinds the ring
// to its own first frame, which is the earlier one here, so both frames
// are handed out again; after power returns the cluster ends in the state
// of a twin whose power failed before the poll was processed at all.
func TestDeathBetweenShardsOfOnePoll(t *testing.T) {
	run := func(between bool) string {
		c, region := testCluster(t, Options{Seed: 9})
		prim, coord := primaryAndOutsider(t, c, region)
		a := writeObjectIn(t, c, prim, region, []byte("aaaaaaaa"))
		b := writeObjectIn(t, c, prim, region, []byte("bbbbbbbb"))
		c.RunFor(20 * sim.Millisecond)

		// Both LOCK records land before one poll decodes them; the first
		// one's worker is held.
		lr := prim.peer(coord.ID).logR
		lr.pollScheduled = true
		const first, second = 1, 2
		prim.pool.ByIndex(coord.ID+first).Do(100*sim.Microsecond, nil)
		var doneA, doneB bool
		var errA, errB error
		update(t, coord, first, a, []byte("AAAAAAAA"), &doneA, &errA)
		// A head start makes the held worker's frame the earlier one by
		// construction: started together, the two LOCK records leave 180 ns
		// apart, in an order set by what else the coordinator's workers are
		// doing at the instant the test happens to start.
		c.RunFor(5 * sim.Microsecond)
		update(t, coord, second, b, []byte("BBBBBBBB"), &doneB, &errB)
		c.RunFor(30 * sim.Microsecond)
		if !between {
			c.PowerFailure()
		}
		lr.pollFn()
		if between {
			runUntil(t, c, sim.Second, func() bool { return len(prim.pend) == 1 })
			c.PowerFailure()
			c.RunFor(200 * sim.Microsecond) // the held shard finds the machine dead
			frames := lr.rd.Poll()
			if len(frames) != 2 {
				t.Fatalf("after the rewind the ring hands out %d frames, want both", len(frames))
			}
			lr.rd.RewindTo(frames[0].Seq)
		}
		c.RunFor(50 * sim.Millisecond)
		c.RestorePower()
		c.RunFor(300 * sim.Millisecond)

		h := fnv.New64a()
		var out bytes.Buffer
		for _, m := range c.Machines {
			for _, r := range m.HostedRegions() {
				rep := m.replica(r)
				hashRegion(h, rep)
				fmt.Fprintf(&out, "m%d r%d locks=%d ", m.ID, r, len(rep.lockOwner))
			}
			fmt.Fprintf(&out, "pend=%d\n", len(m.pend))
		}
		for _, addr := range []proto.Addr{a, b} {
			rep := prim.replica(region)
			if regionmem.Locked(rep.mem.ReadHeader(int(addr.Off))) {
				t.Fatalf("object %v left locked", addr)
			}
		}
		fmt.Fprintf(&out, "A done=%v err=%v B done=%v err=%v mem=%x", doneA, errA, doneB, errB, h.Sum64())
		return out.String()
	}
	if between, before := run(true), run(false); between != before {
		t.Fatalf("power failure between two shards of a poll:\n%s\npower failure before the poll:\n%s", between, before)
	}
}

// TestWireThreadIDOnlyPicksAShard: a coordinator thread id is two bytes off
// the wire and may exceed the worker count by any amount, in a record's
// transaction id and in a piggybacked truncation id alike.
func TestWireThreadIDOnlyPicksAShard(t *testing.T) {
	c, region := testCluster(t, Options{})
	prim, coord := primaryAndOutsider(t, c, region)
	addr := writeObjectIn(t, c, prim, region, []byte("aaaaaaaa"))
	c.RunFor(20 * sim.Millisecond)
	rep := prim.replica(region)
	version := regionmem.Version(rep.mem.ReadHeader(int(addr.Off)))

	id := proto.TxID{Config: prim.config.ID, Machine: uint16(coord.ID), Thread: 65535, Local: 1}
	appendRecord(t, coord, prim.ID, &proto.Record{
		Type: proto.RecLock, Tx: id, Regions: []uint32{region},
		Writes: []proto.ObjectWrite{{Addr: addr, Version: version, Allocated: true, Value: []byte("bbbbbbbb")}},
	})
	c.RunFor(50 * sim.Microsecond)
	if rt := prim.pend[mtlOf(id)]; rt == nil || len(rt.lockedObjs) != 1 {
		t.Fatalf("LOCK record of thread 65535 not processed: %+v", rt)
	}
	appendRecord(t, coord, prim.ID, &proto.Record{Type: proto.RecAbort, Tx: id})
	// The truncation rides a thread-0 carrier and is split off to the shard
	// of thread 65535.
	appendRecord(t, coord, prim.ID, &proto.Record{
		Type: proto.RecTruncate, Tx: proto.TxID{Config: prim.config.ID, Machine: uint16(coord.ID)},
		TruncIDs: []uint64{packTruncID(65535, 1)},
	})
	c.RunFor(50 * sim.Microsecond)
	if len(prim.pend) != 0 || !prim.truncWindow(id.Coord()).has(1) {
		t.Fatalf("transaction of thread 65535 not truncated: %d pending", len(prim.pend))
	}
	if regionmem.Locked(rep.mem.ReadHeader(int(addr.Off))) {
		t.Fatal("ABORT record of thread 65535 left the object locked")
	}
}
