package core

import (
	"errors"
	"testing"

	"farm/internal/history"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
)

// Whole-cluster power failure tests (§2.1 / §5's durability claim).

func TestPowerCyclePreservesCommittedData(t *testing.T) {
	c, _ := testCluster(t, Options{NumMachines: 5, Seed: 51})
	addr := writeObject(t, c, c.Machine(1), []byte("i survive!"))
	c.RunFor(20 * sim.Millisecond)

	c.PowerCycle(100 * sim.Millisecond)
	c.RunFor(300 * sim.Millisecond)

	// All machines back, one configuration, advanced id.
	cfg := c.Machine(0).ConfigID()
	if cfg < 2 {
		t.Fatalf("no recovery reconfiguration: config %d", cfg)
	}
	for _, m := range c.Machines {
		if !m.Alive() {
			t.Fatalf("machine %d did not restart", m.ID)
		}
		if m.ConfigID() != cfg {
			t.Fatalf("machine %d in config %d, want %d", m.ID, m.ConfigID(), cfg)
		}
	}
	if got := readObject(t, c, c.Machine(3), addr, 10); string(got) != "i survive!" {
		t.Fatalf("data lost across power cycle: %q", got)
	}
	// The cluster accepts new commits.
	addr2 := writeObject(t, c, c.Machine(2), []byte("post-power"))
	if got := readObject(t, c, c.Machine(4), addr2, 10); string(got) != "post-power" {
		t.Fatalf("post-restore commit broken: %q", got)
	}
}

func TestPowerFailureResolvesInFlightTransactions(t *testing.T) {
	c, _ := testCluster(t, Options{NumMachines: 5, Seed: 53})
	addr := writeObject(t, c, c.Machine(1), []byte("vvvvvvvv"))
	c.RunFor(20 * sim.Millisecond)

	// Start a stream of updates and cut power mid-stream.
	var results []error
	stop := false
	m := c.Machine(1)
	var loop func(i byte)
	loop = func(i byte) {
		if stop || !m.Alive() {
			return
		}
		tx := m.Begin(int(i) % m.Threads())
		tx.Read(addr, 8, func(_ []byte, err error) {
			if err != nil {
				results = append(results, err)
				return
			}
			tx.Write(addr, []byte{i, i, i, i, i, i, i, i})
			tx.Commit(func(err error) {
				results = append(results, err)
				loop(i + 1)
			})
		})
	}
	loop(1)
	c.RunFor(5 * sim.Millisecond)
	c.PowerCycle(50 * sim.Millisecond)
	c.RunFor(500 * sim.Millisecond)
	stop = true
	c.RunFor(10 * sim.Millisecond)

	if len(results) < 3 {
		t.Fatalf("only %d transactions ran", len(results))
	}
	// Every transaction must have a definite outcome (no hangs), and
	// every error must be a recognized class.
	for _, err := range results {
		if err != nil && !errors.Is(err, ErrConflict) && !errors.Is(err, ErrAborted) &&
			!errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrReadLocked) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	// No object may be left locked after recovery.
	c.RunFor(100 * sim.Millisecond)
	for _, mm := range c.Machines {
		for _, rid := range mm.HostedRegions() {
			if rep := mm.replica(rid); rep.primary {
				word := rep.mem.ReadHeader(int(addr.Off))
				if rid == addr.Region && regionmem.Locked(word) {
					t.Fatal("object left locked after power-failure recovery")
				}
			}
		}
	}
	// Truncation has settled: no machine keeps a queued transaction or a
	// pooled TRUNCATE slot, though commits and aborts were cut off by the
	// outage mid-record.
	for _, mm := range c.Machines {
		if open := mm.OpenTruncations(); len(open) > 0 {
			t.Errorf("m%d after the load: %v", mm.ID, open)
		}
	}
	// The final value must be consistent across all replicas of the
	// region after truncation settles.
	var vals [][]byte
	rm := c.Machine(0).mapping(addr.Region)
	for _, r := range rm.Replicas {
		rep := c.Machine(int(r)).replica(addr.Region)
		_, data := objectAt(rep, int(addr.Off), 8)
		vals = append(vals, data)
	}
	for i := 1; i < len(vals); i++ {
		if string(vals[i]) != string(vals[0]) {
			t.Fatalf("replica divergence after power cycle: %q vs %q", vals[0], vals[i])
		}
	}
}

// TestPowerCycleForgetsOldLogFrames: restoring power replaces every log
// reader by a fresh one over the same, emptied ring memory. A participant
// entry that survives the outage must not name frames of the old readers,
// or truncating it would zero what the fresh ring has since received.
func TestPowerCycleForgetsOldLogFrames(t *testing.T) {
	c, _ := testCluster(t, Options{NumMachines: 5, Seed: 53})
	addr := writeObject(t, c, c.Machine(1), []byte("vvvvvvvv"))
	c.RunFor(20 * sim.Millisecond)
	stale := func() (n, all int) {
		for _, m := range c.Machines {
			for _, rt := range m.pend {
				for _, f := range rt.frames {
					all++
					if f.lr != m.peer(f.lr.src).logR {
						n++
					}
				}
			}
		}
		return n, all
	}

	m := c.Machine(1)
	stop := false
	var loop func(i byte)
	loop = func(i byte) {
		if stop || !m.Alive() {
			return
		}
		tx := m.Begin(int(i) % m.Threads())
		tx.Read(addr, 8, func(_ []byte, err error) {
			if err != nil {
				return
			}
			tx.Write(addr, []byte{i, i, i, i, i, i, i, i})
			tx.Commit(func(error) { loop(i + 1) })
		})
	}
	for th := byte(0); th < 4; th++ {
		loop(th * 64)
	}
	c.RunFor(5 * sim.Millisecond)
	c.PowerFailure()
	if _, all := stale(); all == 0 {
		t.Fatal("no participant entry holds frames at the outage")
	}
	c.RunFor(50 * sim.Millisecond)
	c.RestorePower()
	for i := 0; i < 50; i++ {
		if n, _ := stale(); n != 0 {
			t.Fatalf("%v after power returned: %d frames of replaced log readers", c.Now(), n)
		}
		c.RunFor(sim.Millisecond)
	}
	stop = true
	c.RunFor(100 * sim.Millisecond)
	if n, _ := stale(); n != 0 {
		t.Fatalf("%d frames of replaced log readers", n)
	}
}

func TestPowerFailureReportedCommitsSurvive(t *testing.T) {
	// Transactions reported committed before the outage must read back
	// afterwards — the paper's core durability promise.
	c, _ := testCluster(t, Options{NumMachines: 5, Seed: 57})
	type kvpair struct {
		addr proto.Addr
		val  byte
	}
	var committed []kvpair
	for i := byte(1); i <= 10; i++ {
		a := writeObject(t, c, c.Machine(int(i)%5), []byte{i, i, i, i})
		committed = append(committed, kvpair{addr: a, val: i})
	}
	c.PowerCycle(200 * sim.Millisecond)
	c.RunFor(300 * sim.Millisecond)
	for _, kv := range committed {
		got := readObject(t, c, c.Machine(2), kv.addr, 4)
		if got[0] != kv.val {
			t.Fatalf("committed value %d lost: got %d", kv.val, got[0])
		}
	}
}

// TestPowerCycleVoidsLeaseFencedCommitReports drives the one order in which
// a parked commit report used to outlive its transaction's abort: the
// coordinator is partitioned away right after its LOCK is granted, the
// surviving configuration evicts it and aborts the transaction, another
// transaction installs the same version, the partition heals, the zombie's
// COMMIT-PRIMARY gets its hardware ack and the report is parked behind the
// stale lease — and then a power cycle hands the zombie a fresh lease
// manager. The application must never be told that transaction committed.
func TestPowerCycleVoidsLeaseFencedCommitReports(t *testing.T) {
	o := recoveryOpts()
	o.History = true
	c, region := testCluster(t, o)
	prim, zm := primaryAndOutsider(t, c, region)
	addr := writeObjectIn(t, c, prim, region, []byte("aaaaaaaa"))
	c.RunFor(20 * sim.Millisecond)

	var zombieDone bool
	var zombieErr error
	update(t, zm, 3, addr, []byte("zzzzzzzz"), &zombieDone, &zombieErr)
	// Cut the coordinator off the instant its LOCK-REPLY is in.
	runUntil(t, c, sim.Second, func() bool {
		for _, ct := range zm.inflight {
			return ct.phase > phaseLock
		}
		return false
	})
	// Heal within the ring writer's ~127 ms retransmission span, so the
	// zombie's COMMIT records still land once the partition is gone.
	c.Partition(map[int]int{zm.ID: 1})
	c.RunFor(60 * sim.Millisecond)
	if prim.config.Member(uint16(zm.ID)) {
		t.Fatal("partitioned coordinator was not evicted")
	}
	if zombieDone {
		t.Fatalf("partitioned coordinator reported an outcome: %v", zombieErr)
	}

	// The survivors aborted it; this update installs the version it locked.
	var updated bool
	var liveErr error
	update(t, prim, 0, addr, []byte("bbbbbbbb"), &updated, &liveErr)
	runUntil(t, c, sim.Second, func() bool { return updated })
	if liveErr != nil {
		t.Fatalf("commit after eviction: %v", liveErr)
	}

	c.Heal()
	runUntil(t, c, sim.Second, func() bool { return len(zm.fencedReports) > 0 })
	if zombieDone {
		t.Fatal("report was not fenced by the stale lease")
	}

	c.PowerCycle(50 * sim.Millisecond)
	c.RunFor(500 * sim.Millisecond)
	if zombieDone && zombieErr == nil {
		t.Fatal("aborted transaction reported committed after the power cycle")
	}
	if got := readObject(t, c, prim, addr, 8); string(got) != "bbbbbbbb" {
		t.Fatalf("object holds %q, want the survivors' update", got)
	}
	if rep := history.Check(c.Hist.Export()); !rep.Ok() {
		t.Fatalf("history judge: %v", rep.Violations)
	}
}
