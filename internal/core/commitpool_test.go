package core

import (
	"slices"
	"testing"

	"farm/internal/fabric"
	"farm/internal/pool"
	"farm/internal/proto"
	"farm/internal/sim"
)

// The tests here hold the coordinator's pooled commit state to its rule
// (DESIGN.md §12, "Pooled objects"): a coordTx goes back to its
// machine's pool when its truncation finished, and a LOCK-REPLY to its
// sender's when the fabric reclaims the frame that carried it; nothing that
// outlives either may act through it.

// regionAvoiding creates regions until one has none of avoid among its
// replicas and a primary outside primaryNot.
func regionAvoiding(t *testing.T, c *Cluster, avoid, primaryNot []int) uint32 {
	t.Helper()
	for i := 0; i < 20; i++ {
		regions, err := c.CreateRegions(0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		rm := c.Machine(0).mapping(regions[0])
		if rm == nil || slices.Contains(primaryNot, int(rm.Replicas[0])) {
			continue
		}
		ok := true
		for _, r := range rm.Replicas {
			ok = ok && !slices.Contains(avoid, int(r))
		}
		if ok {
			return regions[0]
		}
	}
	t.Fatal("could not place a region with suitable replicas")
	return 0
}

// TestLateVerdictAfterRecycleIsIgnored: a read-write commit whose one-sided
// validation read is held up on the wire is aborted by the stall sweep; its
// truncation finishes and its coordTx goes back to the pool, and a second
// commit of the same machine takes it. When the first commit's verdict
// finally lands — a success — it must not count for the second commit,
// whose own read went stale and must abort. The outcomes match a twin run
// in which the second commit gets a fresh coordTx.
func TestLateVerdictAfterRecycleIsIgnored(t *testing.T) {
	type outcome struct{ first, second error }
	run := func(reuse bool) outcome {
		c := New(Options{NumMachines: 5, Seed: 19})
		cm := int(c.Machine(0).config.CM)
		// The read region's primary and the coordinator are not the CM, so
		// no lease travels the delayed link; the written region keeps its
		// replicas off the read primary and its primary off the coordinator.
		readRegion := regionAvoiding(t, c, nil, []int{cm})
		prim, coord := primaryAndOutsider(t, c, readRegion)
		writeRegion := regionAvoiding(t, c, []int{prim.ID}, []int{coord.ID})
		a := writeObjectIn(t, c, prim, readRegion, []byte("aaaaaaaa"))
		b := writeObjectIn(t, c, prim, readRegion, []byte("bbbbbbbb"))
		w := writeObjectIn(t, c, c.Machine(int(c.Machine(0).mapping(writeRegion).Replicas[0])), writeRegion, []byte("wwwwwwww"))
		c.RunFor(20 * sim.Millisecond)

		// Both transactions execute now: each reads an object of prim and
		// writes w.
		tx1, tx2 := coord.Begin(0), coord.Begin(1)
		for _, x := range []struct {
			tx *Tx
			r  proto.Addr
		}{{tx1, a}, {tx2, b}} {
			txRead(t, c, x.tx, x.r, 8)
			txRead(t, c, x.tx, w, 8)
			x.tx.Write(w, []byte("xxxxxxxx"))
		}

		const late = 80 * sim.Millisecond
		link := func(d sim.Time) {
			c.Net.SetLinkFault(fabric.MachineID(prim.ID), fabric.MachineID(coord.ID), fabric.LinkFault{Delay: sim.Fixed(d)})
		}
		link(late)
		var out outcome
		reported := 0
		tx1.Commit(func(err error) { out.first = err; reported++ })
		runUntil(t, c, sim.Second, func() bool { return tx1.ct != nil })
		ct1, validating := tx1.ct, c.Eng.Now()
		runUntil(t, c, sim.Second, func() bool { return reported == 1 && coord.commits.Holds(ct1) })
		if out.first != ErrAborted {
			t.Fatalf("first commit: %v, want the stall sweep's ErrAborted", out.first)
		}
		if got := c.Eng.Now(); got > validating+late-10*sim.Millisecond {
			t.Fatalf("first commit recycled %v after it began validating, too close to its verdict at %v", got-validating, late)
		}

		// b goes stale, and the second commit's validation read returns
		// 5 ms after the first commit's.
		var staled bool
		var err error
		update(t, prim, 2, b, []byte("BBBBBBBB"), &staled, &err)
		runUntil(t, c, sim.Second, func() bool { return staled })
		if err != nil {
			t.Fatalf("update of b: %v", err)
		}
		c.RunFor(validating + late - 5*sim.Millisecond - c.Eng.Now())
		link(10 * sim.Millisecond)
		if !reuse {
			coord.commits = pool.Free[coordTx]{}
		}
		tx2.Commit(func(err error) { out.second = err; reported++ })
		runUntil(t, c, sim.Second, func() bool { return tx2.ct != nil })
		if (tx2.ct == ct1) != reuse {
			t.Fatalf("second commit took the recycled coordTx: %v, want %v", tx2.ct == ct1, reuse)
		}
		runUntil(t, c, sim.Second, func() bool { return reported == 2 })
		return out
	}
	pooled, fresh := run(true), run(false)
	if pooled != fresh {
		t.Fatalf("with the recycled coordTx: %+v; with a fresh one: %+v", pooled, fresh)
	}
	if pooled.second != ErrConflict {
		t.Fatalf("second commit over a stale read: %v, want ErrConflict", pooled.second)
	}
}

// TestDuplicatedLockReply: every frame one primary sends the coordinator
// arrives twice. The primary's LOCK-REPLY goes back to its pool only once
// the fabric reclaims the frame, after the second copy's delivery; the
// sender reuses it at once, with the opposite verdict; both copies still
// reach the coordinator with the verdict they carried, and count once.
// With the other primary refusing its lock, the commit aborts: the
// duplicate is not taken for the other primary's verdict.
func TestDuplicatedLockReply(t *testing.T) {
	for _, refuse := range []bool{false, true} {
		c := New(Options{NumMachines: 5, Seed: 19})
		cm := int(c.Machine(0).config.CM)
		r1 := regionAvoiding(t, c, nil, []int{cm})
		p1, coord := primaryAndOutsider(t, c, r1)
		r2 := regionAvoiding(t, c, nil, []int{p1.ID, coord.ID})
		p2 := c.Machine(int(c.Machine(0).mapping(r2).Replicas[0]))
		w1 := writeObjectIn(t, c, p1, r1, []byte("aaaaaaaa"))
		w2 := writeObjectIn(t, c, p2, r2, []byte("bbbbbbbb"))
		c.RunFor(20 * sim.Millisecond)

		tx := coord.Begin(0)
		for _, w := range []proto.Addr{w1, w2} {
			txRead(t, c, tx, w, 8)
			tx.Write(w, []byte("xxxxxxxx"))
		}
		if refuse {
			var done bool
			var err error
			update(t, p2, 2, w2, []byte("BBBBBBBB"), &done, &err)
			runUntil(t, c, sim.Second, func() bool { return done })
			if err != nil {
				t.Fatalf("update of w2: %v", err)
			}
		}
		// p1's copies land 50 µs on, while the coordinator's workers are
		// busy, and p2's reply after the workers are free again.
		c.Net.SetLinkFault(fabric.MachineID(p1.ID), fabric.MachineID(coord.ID),
			fabric.LinkFault{Delay: sim.Fixed(50 * sim.Microsecond), DupProb: 1})
		c.Net.SetLinkFault(fabric.MachineID(p2.ID), fabric.MachineID(coord.ID),
			fabric.LinkFault{Delay: sim.Fixed(400 * sim.Microsecond)})
		recv := func() uint64 { return c.Counters.Get("msg LOCK-REPLY") }
		base, free := recv(), p1.lockReplies.Len()

		var out error
		reported := false
		tx.Commit(func(err error) { out, reported = err, true })
		c.RunFor(10 * sim.Microsecond)
		if recv() != base || len(coord.inflight) != 1 {
			t.Fatalf("%d LOCK-REPLYs in and %d commits in flight before the workers were held", recv()-base, len(coord.inflight))
		}
		var id proto.TxID
		for id = range coord.inflight {
		}
		for i := 0; i < coord.Threads(); i++ {
			coord.pool.ByIndex(i).Do(300*sim.Microsecond, func() {})
		}

		reclaimed := false
		for !reported && c.Eng.Step() {
			if reclaimed || p1.lockReplies.Len() == free {
				continue
			}
			reclaimed = true
			if n := recv() - base; n != 2 {
				t.Fatalf("p1's LOCK-REPLY reclaimed after %d deliveries, want both copies", n)
			}
			proto.PooledLockReply(&p1.lockReplies, id, false) // the reply just reclaimed
		}
		if !reclaimed {
			t.Fatal("p1's LOCK-REPLY never went back to its pool")
		}
		want := error(nil)
		if refuse {
			want = ErrConflict
		}
		if out != want || recv()-base != 3 {
			t.Fatalf("refuse=%v: commit %v after %d LOCK-REPLYs, want %v after 3", refuse, out, recv()-base, want)
		}
	}
}
