package core

import (
	"testing"

	"farm/internal/fabric"
	"farm/internal/history"
	"farm/internal/proto"
	"farm/internal/sim"
)

// Tests for §5.2 step 7: the CM commits a new configuration once the leases
// it granted to the removed machines have lapsed (leaseManager.commitWait),
// and a full lease after the last NEW-CONFIG-ACK only where it cannot bound
// them.

// awaitingAcks counts the NEW-CONFIG calls of configuration cfg (0: any)
// open at m: its round has not collected their acks.
func awaitingAcks(m *Machine, cfg uint64) int {
	n := 0
	for _, c := range m.calls {
		if nc, ok := c.msg.(*proto.NewConfig); ok && (cfg == 0 || nc.Config.ID == cfg) {
			n++
		}
	}
	return n
}

// commitRound drives c until the next config-commit. It returns the commit
// instant (the simulation stops there), the configuration committed, and
// when the CM handled the round's last NEW-CONFIG-ACK. each, if not nil,
// runs after every event.
func commitRound(t *testing.T, c *Cluster, within sim.Time, each func()) (lastAck, commitAt sim.Time, cfg int) {
	t.Helper()
	awaiting := func() bool {
		for _, m := range c.Machines {
			if awaitingAcks(m, 0) > 0 {
				return true
			}
		}
		return false
	}
	seen, was := len(c.Trace), awaiting()
	deadline := c.Now() + within
	for c.Now() < deadline && c.Eng.Step() {
		if each != nil {
			each()
		}
		now := awaiting()
		if was && !now {
			lastAck = c.Now()
		}
		was = now
		for ; seen < len(c.Trace); seen++ {
			if e := c.Trace[seen]; e.Event == "config-commit" {
				if lastAck == 0 {
					t.Fatalf("configuration %d committed before its acks were in", e.Arg)
				}
				return lastAck, e.At, e.Arg
			}
		}
	}
	t.Fatalf("no config-commit within %v", within)
	return 0, 0, 0
}

// TestCrashedMachineCommitsWithoutLeaseWait: a crashed machine is suspected
// only after its lease at the CM lapsed, which is after the lease the CM
// last granted it lapsed, so the CM commits as soon as every ack is in.
func TestCrashedMachineCommitsWithoutLeaseWait(t *testing.T) {
	c, _ := testCluster(t, recoveryOpts())
	c.RunFor(20 * sim.Millisecond)
	c.Kill(4)
	lastAck, commitAt, _ := commitRound(t, c, sim.Second, nil)
	if d := commitAt - lastAck; d >= 100*sim.Microsecond {
		t.Fatalf("config-commit %v after the last NEW-CONFIG-ACK, want < 100µs", d)
	}
}

// TestCrashedMachineCommitWaitUnderHierarchicalLeases: with two lease
// groups, {0,1,2} led by the CM and {3,4,5} led by 3, the CM granted the
// crashed leader's lease and commits at once; a crashed member's lease was
// granted by its leader, which the CM cannot bound, so it waits a lease.
func TestCrashedMachineCommitWaitUnderHierarchicalLeases(t *testing.T) {
	for _, tc := range []struct {
		victim int
		leader bool
	}{{3, true}, {4, false}} {
		o := recoveryOpts()
		o.LeaseGroupSize = 3
		c, _ := testCluster(t, o)
		c.RunFor(20 * sim.Millisecond)
		c.Kill(tc.victim)
		lastAck, commitAt, _ := commitRound(t, c, sim.Second, nil)
		switch d := commitAt - lastAck; {
		case tc.leader && d >= 100*sim.Microsecond:
			t.Errorf("crashed leader m%d: config-commit %v after the last NEW-CONFIG-ACK, want < 100µs", tc.victim, d)
		case !tc.leader && d < o.LeaseDuration:
			t.Errorf("crashed member m%d: config-commit %v after the last NEW-CONFIG-ACK, want ≥ %v", tc.victim, d, o.LeaseDuration)
		}
	}
}

// TestLiveRemovedMachineHoldsCommitUntilItsLeaseLapses: the CM removes a
// machine that is alive and renewing. The commit waits until the lease the
// CM last granted it has lapsed, and from then on the victim — which never
// learns it was removed — reports no commit: its completions park behind
// its lease.
func TestLiveRemovedMachineHoldsCommitUntilItsLeaseLapses(t *testing.T) {
	o := recoveryOpts()
	o.History = true
	c, _ := testCluster(t, o)
	// The victim is a primary, so its own updates complete without a
	// message: LOCK and COMMIT-PRIMARY are local and a backup's NIC acks
	// COMMIT-BACKUP whether or not its process still listens. Not machine
	// 1, which would take over as CM once its lease lapses and block its
	// clients instead.
	region := regionWithPrimaryNotIn(t, c, 0, 1)
	victim := primaryOfRegion(c, region)
	var lastOK sim.Time
	var loop func(thread int, addr proto.Addr)
	loop = func(thread int, addr proto.Addr) {
		tx := victim.Begin(thread)
		tx.Read(addr, 8, func(b []byte, err error) {
			if err != nil {
				return
			}
			tx.Write(addr, u64b(u64(b)+1))
			tx.Commit(func(err error) {
				if err == nil {
					lastOK = c.Now()
				}
				loop(thread, addr)
			})
		})
	}
	for th := 0; th < 4; th++ {
		loop(th, writeObjectIn(t, c, victim, region, u64b(0)))
	}
	c.RunFor(3 * sim.Millisecond)

	cm := c.Machine(0)
	cm.suspect(victim.ID)
	var granted sim.Time
	lastAck, commitAt, _ := commitRound(t, c, sim.Second, func() {
		if g := *leaseSlot(&cm.lease.granted, victim.ID); g != noLease {
			granted = max(granted, g)
		}
	})
	if granted == 0 {
		t.Fatal("the CM recorded no grant to the victim")
	}
	if commitAt < granted+o.LeaseDuration {
		t.Fatalf("committed at %v, before the victim's lease (granted %v) lapsed", commitAt, granted)
	}
	if victim.lease.fresh() {
		t.Fatal("the victim's lease is still fresh at the commit")
	}
	t.Logf("last ack %v, commit %v (wait %v), last grant %v", lastAck, commitAt, commitAt-lastAck, granted)

	c.RunFor(30 * sim.Millisecond)
	if lastOK > commitAt {
		t.Fatalf("the removed victim reported a commit at %v, after the commit at %v", lastOK, commitAt)
	}
	if len(victim.fencedReports) == 0 {
		t.Fatal("no completion of the victim was parked behind its lease")
	}
	if rep := history.Check(c.Hist.Export()); !rep.Ok() {
		t.Fatalf("history judge: %v", rep.Violations)
	}
}

// TestCMFailoverWaitsFullLease: a new CM cannot bound the leases its
// predecessor granted, and after a power restore every lease was started
// by the restore, not granted: both wait a full lease after the last ack.
func TestCMFailoverWaitsFullLease(t *testing.T) {
	o := recoveryOpts()
	c, _ := testCluster(t, o)
	c.RunFor(20 * sim.Millisecond)
	c.Kill(0)
	lastAck, commitAt, _ := commitRound(t, c, sim.Second, nil)
	if d := commitAt - lastAck; d < o.LeaseDuration {
		t.Fatalf("CM failover: commit %v after the last ack, want ≥ %v", d, o.LeaseDuration)
	}

	c.RunFor(50 * sim.Millisecond)
	c.PowerCycle(20 * sim.Millisecond)
	lastAck, commitAt, _ = commitRound(t, c, sim.Second, nil)
	if d := commitAt - lastAck; d < o.LeaseDuration {
		t.Fatalf("power restore: commit %v after the last ack, want ≥ %v", d, o.LeaseDuration)
	}
}

// TestCommitTimerCommitsOnlyItsConfiguration: a suspicion during the commit
// wait starts a new round. The old round's acks and timer must not count
// for the new configuration, which commits exactly once, after its own
// bound; the superseded configuration never commits (its members have
// moved on).
func TestCommitTimerCommitsOnlyItsConfiguration(t *testing.T) {
	o := recoveryOpts()
	c, _ := testCluster(t, o)
	c.RunFor(20 * sim.Millisecond)
	cm := c.Machine(0)
	// A live machine first, so the round's wait is a lease, not zero.
	cm.suspect(4)
	runUntil(t, c, sim.Second, func() bool { return cm.config.ID == 2 && awaitingAcks(cm, 0) == 0 })
	lastOf2 := cm.nextRPC // round 2's last NEW-CONFIG call, answered
	c.Kill(3)
	cm.suspect(3)
	// Between starting round 3 and adopting configuration 3 itself, the CM
	// still runs configuration 2: a late ack of it must not count for 3.
	runUntil(t, c, sim.Second, func() bool { return cm.cm.ackCfg == 3 })
	if cm.config.ID != 2 {
		t.Fatalf("the CM adopted configuration %d with its round", cm.config.ID)
	}
	open := awaitingAcks(cm, 3)
	cm.tp.reg.Lookup(&proto.NewConfigAck{}).Fn(1, &proto.NewConfigAck{ID: lastOf2, ConfigID: 2})
	if open == 0 || awaitingAcks(cm, 3) != open {
		t.Fatalf("an ack of configuration 2 was counted for round 3: %d calls open, then %d", open, awaitingAcks(cm, 3))
	}

	_, commitAt, cfg := commitRound(t, c, sim.Second, nil)
	if cfg != 3 {
		t.Fatalf("first commit is of configuration %d, want 3", cfg)
	}
	if lapse := c.Machine(3).lease.renewed + o.LeaseDuration; commitAt <= lapse {
		t.Fatalf("configuration 3 committed at %v, before m3's lease lapsed at %v", commitAt, lapse)
	}
	c.RunFor(100 * sim.Millisecond)
	commits := map[int]int{}
	for _, e := range c.Trace {
		if e.Event == "config-commit" {
			commits[e.Arg]++
		}
	}
	if commits[2] != 0 || commits[3] != 1 {
		t.Fatalf("commits per configuration %v, want none of 2 and one of 3", commits)
	}
}

// TestSupersedingRoundWaitsForEarlierRemovals: the CM removes a live
// machine, and while that commit waits, its own lease on another machine,
// whose requests no longer reach it, lapses. The new round supersedes the
// first one, and it must also wait for the first one's removal: no
// configuration commits while a machine removed since the last commit
// still holds a lease.
func TestSupersedingRoundWaitsForEarlierRemovals(t *testing.T) {
	o := recoveryOpts()
	c, _ := testCluster(t, o)
	c.RunFor(20 * sim.Millisecond)
	c.SetLinkFault(3, 0, fabric.LinkFault{UDLossProb: 1})
	c.RunFor(2 * sim.Millisecond)
	cm := c.Machine(0)
	cm.suspect(4)

	committed := cm.config
	seen, checked := len(c.Trace), 0
	for deadline := c.Now() + 100*sim.Millisecond; c.Now() < deadline && c.Eng.Step(); {
		for ; seen < len(c.Trace); seen++ {
			e := c.Trace[seen]
			if e.Event != "config-commit" {
				continue
			}
			now := c.Machine(e.Machine).config
			for _, r := range committed.Machines {
				if now.Member(r) || r == now.CM {
					continue
				}
				if c.Machine(int(r)).lease.fresh() {
					t.Fatalf("configuration %d committed at %v while removed m%d still holds a lease", now.ID, c.Now(), r)
				}
				checked++
			}
			committed = now
		}
	}
	if committed.Member(3) || committed.Member(4) || checked < 2 {
		t.Fatalf("configuration %d (%v) committed; %d removals checked", committed.ID, committed.Machines, checked)
	}
}

// TestLeaseTimedFromRequest: with the CM's datagrams to a member delayed
// 2 ms, the member still times its lease from its own request, so it never
// runs past what the CM granted.
func TestLeaseTimedFromRequest(t *testing.T) {
	c := New(Options{NumMachines: 4, Seed: 5, LeaseDuration: 5 * sim.Millisecond})
	c.SetLinkFault(0, 2, fabric.LinkFault{Delay: sim.Fixed(2 * sim.Millisecond)})
	cm, mem := c.Machine(0), c.Machine(2)
	checked := 0
	for deadline := c.Now() + 100*sim.Millisecond; c.Now() < deadline && c.Eng.Step(); {
		g := *leaseSlot(&cm.lease.granted, mem.ID)
		if g == noLease {
			continue
		}
		if mem.lease.renewed > g {
			t.Fatalf("at %v the member's lease runs from %v, after the CM's last grant at %v",
				c.Now(), mem.lease.renewed, g)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("the CM never granted the member a lease")
	}
	if n := c.Counters.Get("lease_expiry"); n != 0 {
		t.Fatalf("%d lease expiries under a 2 ms delay with 5 ms leases", n)
	}
}

// TestLapsedLeaseFencesLockFreeReads: a member whose lease lapsed may have
// been removed, and the primary replica it holds may be stale; a lock-free
// read of it waits for the lease, like a commit report. Here the CM's
// datagrams to the member are lost, so the CM loses the member's lease too
// and removes it: the read must never be delivered.
func TestLapsedLeaseFencesLockFreeReads(t *testing.T) {
	c, _ := testCluster(t, recoveryOpts())
	// Not machine 1: as the CM's first successor it would block its
	// clients at once, and the read would wait for the wrong reason.
	region := regionWithPrimaryNotIn(t, c, 0, 1)
	m := primaryOfRegion(c, region)
	addr := writeObjectIn(t, c, m, region, []byte("lockfree"))
	var got []byte
	m.LockFreeRead(0, addr, 8, func(b []byte, err error) { got = b })
	runUntil(t, c, sim.Millisecond, func() bool { return got != nil })

	c.SetLinkFault(0, m.ID, fabric.LinkFault{UDLossProb: 1})
	runUntil(t, c, sim.Second, func() bool { return !m.lease.fresh() })
	got = nil
	m.LockFreeRead(0, addr, 8, func(b []byte, err error) { got = b })
	c.RunFor(200 * sim.Microsecond)
	if m.clientsBlocked {
		t.Fatal("the member blocked its clients; the lease fence is untested")
	}
	if got != nil {
		t.Fatal("a lock-free read was delivered on a machine whose lease lapsed")
	}
	c.RunFor(100 * sim.Millisecond)
	if c.Machine(0).config.Member(uint16(m.ID)) {
		t.Fatal("the member kept its place in the configuration")
	}
	if got != nil {
		t.Fatal("a removed machine delivered a lock-free read of its old primary")
	}
}
