package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"farm/internal/history"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
)

// Tests for the commit path of a coordinator that is itself the primary of
// what it writes (DESIGN.md §5 "A coordinator is not a remote participant
// of itself"): its LOCK and COMMIT-PRIMARY records are memory writes into
// its own log, handled where they land, and the LOCK verdict is handed to the
// coordinator's thread instead of travelling as a LOCK-REPLY message.

// primaryOfRegion returns the machine holding the region's primary replica.
func primaryOfRegion(c *Cluster, region uint32) *Machine {
	return c.Machine(int(c.Machine(0).mapping(region).Replicas[0]))
}

// stateFingerprint renders what a twin run must agree on: every replica's
// bytes (hashed) and lock owners, every machine's pending participant and
// in-flight coordinator entries.
func stateFingerprint(c *Cluster) string {
	h := fnv.New64a()
	var out bytes.Buffer
	for _, m := range c.Machines {
		for _, r := range m.HostedRegions() {
			rep := m.replica(r)
			hashRegion(h, rep)
			fmt.Fprintf(&out, "m%d r%d locks=%d ", m.ID, r, len(rep.lockOwner))
		}
		fmt.Fprintf(&out, "pend=%d inflight=%d\n", len(m.pend), len(m.inflight))
	}
	fmt.Fprintf(&out, "mem=%x\n", h.Sum64())
	return out.String()
}

// TestLocalPrimaryCommitCounts is TestMessageCountsCommitProtocol with the
// coordinator on the written object's primary: of the Pw(f+3) = 5 record
// writes (truncation aside) the LOCK and the COMMIT-PRIMARY are local, only
// the two COMMIT-BACKUPs cross the network, and no message is sent at all.
func TestLocalPrimaryCommitCounts(t *testing.T) {
	c, region := testCluster(t, Options{NumMachines: 7})
	m := primaryOfRegion(c, region)
	w := writeObjectIn(t, c, m, region, []byte("wwww"))
	r := writeObjectIn(t, c, m, region, []byte("rrrr"))
	c.RunFor(20 * sim.Millisecond)

	net, core := c.Net.Counters.Snapshot(), c.Counters.Snapshot()
	done := false
	tx := m.Begin(0)
	tx.Read(w, 4, func(_ []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		tx.Read(r, 4, func(_ []byte, err error) {
			if err != nil {
				t.Fatal(err)
			}
			tx.Write(w, []byte("WWWW"))
			tx.Commit(func(err error) {
				if err != nil {
					t.Fatal(err)
				}
				done = true
			})
		})
	})
	runUntil(t, c, sim.Second, func() bool { return done })
	dn, dc := c.Net.Counters.Diff(net), c.Counters.Diff(core)

	if dn["msg_send"] != 0 || dc["sent LOCK-REPLY"] != 0 {
		t.Fatalf("a local-primary commit sent %d frames, %d LOCK-REPLY: want none (net %v)", dn["msg_send"], dc["sent LOCK-REPLY"], dn)
	}
	// Backups' workers handle no message: nothing was received anywhere.
	for name, n := range dc {
		if strings.HasPrefix(name, "msg ") && n != 0 {
			t.Fatalf("%q = %d during a local-primary commit, want 0", name, n)
		}
	}
	if dn["local_write"] != 2 || dn["rdma_write"] != 2 {
		t.Fatalf("local_write = %d, rdma_write = %d: want 2 (LOCK, COMMIT-PRIMARY) and 2 (COMMIT-BACKUP) (net %v)",
			dn["local_write"], dn["rdma_write"], dn)
	}
	if dn["rdma_read"] != 0 {
		t.Fatalf("rdma_read = %d: execution and validation reads of local objects are local", dn["rdma_read"])
	}
	// The records still went through the self ring: each was handled where
	// it landed, the COMMIT-PRIMARY before its ack reported the commit.
	if dc = c.Counters.Diff(core); dc["rec LOCK"] != 1 || dc["rec COMMIT-PRIMARY"] != 1 || dc["sent LOCK-REPLY"] != 0 {
		t.Fatalf("the self ring delivered %d LOCK and %d COMMIT-PRIMARY records, want 1 and 1 (%v)", dc["rec LOCK"], dc["rec COMMIT-PRIMARY"], dc)
	}
}

// unloadedUpdate times one read-modify-write of addr from m on an idle
// cluster: Begin to the commit callback, in virtual time.
func unloadedUpdate(t *testing.T, c *Cluster, m *Machine, addr proto.Addr) sim.Time {
	t.Helper()
	var done bool
	var txErr error
	start := c.Now()
	update(t, m, 0, addr, []byte("zzzzzzzz"), &done, &txErr)
	runUntil(t, c, sim.Second, func() bool { return done })
	if txErr != nil {
		t.Fatalf("commit: %v", txErr)
	}
	return c.Now() - start
}

// TestUnloadedCommitLatencyLocalAndRemotePrimary pins the virtual latency of
// one unloaded update, to the nanosecond. With the coordinator on the primary
// it was 19.560 µs while the coordinator treated itself as a remote
// participant: two verbs, two poll gaps and a LOCK-REPLY message to itself
// that the local path does not pay. While messages were coalesced the two
// pins read 28.099 and 8.910 µs; no step was added to or taken off either
// path since. Every fabric hop adds up to 200 ns of wire jitter drawn from the
// engine's one random stream; set-up, whose messages now leave one per frame,
// ends at another position in that stream, so the hops of these two commits
// draw other values (the pins move by as much, then as now, when the commits
// start a millisecond later, past a lease renewal's draws). The remote path
// also sheds the 16-byte batch header its LOCK-REPLY frame carried: 1 ns.
// The local pin was 8.789 µs while the coordinator polled its own records
// back. Handled where it lands, the LOCK record sheds its 625 ns poll charge
// (its 300 ns of per-object work moved onto the append): 8.164 µs. The
// remote path polls as before and keeps its pin.
func TestUnloadedCommitLatencyLocalAndRemotePrimary(t *testing.T) {
	c, region := testCluster(t, Options{})
	prim, out := primaryAndOutsider(t, c, region)
	addr := writeObjectIn(t, c, prim, region, []byte("aaaaaaaa"))
	c.RunFor(20 * sim.Millisecond)

	const wantRemote, wantLocal = 27766 * sim.Nanosecond, 8164 * sim.Nanosecond
	if got := unloadedUpdate(t, c, out, addr); got != wantRemote {
		t.Errorf("remote-primary update took %v, want %v", got, wantRemote)
	}
	c.RunFor(20 * sim.Millisecond)
	if got := unloadedUpdate(t, c, prim, addr); got != wantLocal {
		t.Errorf("local-primary update took %v, want %v", got, wantLocal)
	}
}

// TestDeathBetweenLocalLockAndHandOff cuts power after the coordinator's own
// LOCK record was processed — the object is locked — and before the verdict
// reached the coordinator's thread. The verdict dies with the process like
// a LOCK-REPLY in flight would; the record is still in the self log, so
// after power returns the cluster ends in the state of a twin whose power
// failed before the record was polled at all: the lock recovered and
// released, every replica equal.
func TestDeathBetweenLocalLockAndHandOff(t *testing.T) {
	run := func(between bool) string {
		c, region := testCluster(t, Options{Seed: 9})
		m := primaryOfRegion(c, region)
		addr := writeObjectIn(t, c, m, region, []byte("aaaaaaaa"))
		c.RunFor(20 * sim.Millisecond)

		const thread = 2
		rep := m.replica(region)
		locked := func() bool { return regionmem.Locked(rep.mem.ReadHeader(int(addr.Off))) }
		lr := m.peer(m.ID).logR
		if !between {
			lr.pollScheduled = true // the record lands and is never polled
		}
		carriers := m.verdicts.Len() // set-up's commits left theirs in the pool
		var done bool
		var txErr error
		update(t, m, thread, addr, []byte("AAAAAAAA"), &done, &txErr)
		if between {
			runUntil(t, c, sim.Second, locked)
			if carriers--; !m.pool.ByIndex(thread).Busy() || m.verdicts.Len() != carriers {
				t.Fatal("the verdict is not on its way to the coordinator's thread")
			}
		} else {
			runUntil(t, c, sim.Second, func() bool { return len(m.inflight) == 1 })
			c.RunFor(sim.Microsecond) // the record is in the log
			if lr.rd.Retained() != 0 || locked() {
				t.Fatal("the LOCK record was polled")
			}
		}
		c.PowerFailure()
		c.RunFor(50 * sim.Millisecond)
		if m.verdicts.Len() != carriers {
			t.Fatal("a verdict carrier was recycled on a dead machine")
		}
		if ct := m.inflight[proto.TxID{Config: m.config.ID, Machine: uint16(m.ID), Thread: thread, Local: m.nextLocal[thread]}]; ct == nil || ct.phase != phaseLock {
			t.Fatalf("the coordinator moved past its lock phase without the verdict: %+v", ct)
		}
		c.RestorePower()
		c.RunFor(300 * sim.Millisecond)

		if locked() {
			t.Fatal("object left locked")
		}
		for _, r := range conclusiveAudit(t, c) {
			if !r.Clean {
				t.Fatalf("backup differs from its primary: %v", r)
			}
		}
		return fmt.Sprintf("%sdone=%v err=%v", stateFingerprint(c), done, txErr)
	}
	if between, before := run(true), run(false); between != before {
		t.Fatalf("power failure between the local LOCK and its hand-off:\n%s\npower failure before the record was polled:\n%s", between, before)
	}
}

// TestLocalPrimaryBackupKilledMidCommitBackup: the coordinator is the
// primary, so its lock phase ran on hand-offs alone; a backup dies while the
// COMMIT-BACKUP records are in flight. Recovery must decide the transaction
// from the same log records it always had, the recorded history must be
// strictly serializable, and every backup must equal its primary.
func TestLocalPrimaryBackupKilledMidCommitBackup(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			o := recoveryOpts()
			o.Seed, o.History = seed, true
			c, region := testCluster(t, o)
			m := primaryOfRegion(c, region)
			var addrs []proto.Addr
			for i := 0; i < 4; i++ {
				addrs = append(addrs, writeObjectIn(t, c, m, region, u64b(0)))
			}
			c.RunFor(20 * sim.Millisecond)

			stop := false
			outcomes := 0
			var loop func(thread int)
			loop = func(thread int) {
				if stop || !m.Alive() {
					return
				}
				addr := addrs[thread%len(addrs)]
				tx := m.Begin(thread)
				tx.Read(addr, 8, func(data []byte, err error) {
					if err != nil {
						tx.Abort()
						c.Eng.After(100*sim.Microsecond, func() { loop(thread) })
						return
					}
					tx.Write(addr, u64b(u64(data)+1))
					tx.Commit(func(err error) {
						if err != nil && !errors.Is(err, ErrConflict) && !errors.Is(err, ErrAborted) && !errors.Is(err, ErrUnavailable) {
							t.Fatalf("unexpected error: %v", err)
						}
						outcomes++
						loop(thread)
					})
				})
			}
			for th := 0; th < 2; th++ {
				loop(th)
			}
			c.RunFor(sim.Millisecond)
			midBackup := func() bool {
				for _, ct := range m.inflight {
					if ct.phase == phaseCommitBackup && ct.cbOutstanding == ct.backups {
						return true
					}
				}
				return false
			}
			runUntil(t, c, sim.Second, midBackup)
			sent := c.Counters.Get("sent LOCK-REPLY")
			victim := int(c.Machine(0).mapping(region).Replicas[1])
			if c.Machine(victim).IsCM() {
				victim = int(c.Machine(0).mapping(region).Replicas[2])
			}
			c.Kill(victim)
			c.RunFor(100 * sim.Millisecond)
			stop = true
			c.RunFor(30 * sim.Millisecond)

			if c.Counters.Get("recovery_decided") == 0 {
				t.Fatalf("recovery decided nothing: %s", c.Counters)
			}
			if len(m.inflight) != 0 {
				t.Fatalf("%d transactions still in flight at the coordinator", len(m.inflight))
			}
			if outcomes < 100 {
				t.Fatalf("only %d transactions finished", outcomes)
			}
			if got := c.Counters.Get("sent LOCK-REPLY"); got != sent {
				t.Fatalf("%d LOCK-REPLY messages sent by a workload whose only primary is its coordinator", got-sent)
			}
			if rep := history.Check(c.Hist.Export()); !rep.Ok() {
				t.Fatalf("history checker: %v", rep.Violations)
			}
			for _, r := range conclusiveAudit(t, c) {
				if !r.Clean {
					t.Fatalf("backup differs from its primary: %v", r)
				}
			}
		})
	}
}

// TestRefusedLocalLockAborts: a LOCK the coordinator's own primary refuses —
// the object is locked by someone else, or an audit fences the region —
// still ends in an ABORT record and truncation of the self ring, with the
// refusal marked on the participant entry, and nothing is left behind.
func TestRefusedLocalLockAborts(t *testing.T) {
	for _, cause := range []string{"conflict", "auditFence"} {
		t.Run(cause, func(t *testing.T) {
			c, region := testCluster(t, Options{})
			m := primaryOfRegion(c, region)
			addr := writeObjectIn(t, c, m, region, []byte("aaaaaaaa"))
			c.RunFor(20 * sim.Millisecond)
			rep := m.replica(region)

			other := proto.TxID{Config: m.config.ID, Machine: uint16(m.ID), Thread: 7, Local: 1 << 40}
			var done bool
			var txErr error
			tx := m.Begin(1)
			tx.Read(addr, 8, func(_ []byte, err error) {
				if err != nil {
					t.Fatal(err)
				}
				// Refuse what the transaction is about to lock.
				if cause == "conflict" {
					if !rep.mem.TryLock(int(addr.Off), regionmem.Version(rep.mem.ReadHeader(int(addr.Off)))) {
						t.Fatal("object already locked")
					}
					rep.lockOwner[addr.Off] = other
				} else {
					rep.audit = &auditRun{} // fenced
				}
				tx.Write(addr, []byte("bbbbbbbb"))
				tx.Commit(func(err error) { done, txErr = true, err })
			})
			snap := c.Counters.Snapshot()
			refused := false
			runUntil(t, c, sim.Second, func() bool {
				for _, rt := range m.pend {
					refused = refused || rt.lockRefused
				}
				return done
			})
			if !errors.Is(txErr, ErrConflict) {
				t.Fatalf("commit: %v, want a conflict", txErr)
			}
			if !refused {
				t.Fatal("the refused LOCK was never marked lockRefused on its participant entry")
			}
			if cause == "conflict" {
				rep.mem.Unlock(int(addr.Off))
				delete(rep.lockOwner, addr.Off)
			} else {
				rep.audit = nil
			}
			c.RunFor(5 * sim.Millisecond)
			d := c.Counters.Diff(snap)
			if d["rec LOCK"] != 1 || d["rec ABORT"] != 1 || d["lock_failed"] != 1 || d["sent LOCK-REPLY"] != 0 {
				t.Fatalf("want one LOCK, one ABORT, one lock_failed and no LOCK-REPLY: %v", d)
			}
			if len(m.pend) != 0 || len(m.inflight) != 0 || len(rep.lockOwner) != 0 {
				t.Fatalf("left behind: %d pending, %d in flight, %d lock owners", len(m.pend), len(m.inflight), len(rep.lockOwner))
			}
			if lr := m.peer(m.ID).logR; lr.rd.Retained() != 0 {
				t.Fatalf("self ring not truncated: %d frames retained", lr.rd.Retained())
			}
			if got := readObject(t, c, m, addr, 8); string(got) != "aaaaaaaa" {
				t.Fatalf("object = %q after the abort", got)
			}
		})
	}
}

// TestWireThreadIDOnSelfRecordOnlyPicksAThread is TestWireThreadIDOnlyPicksAShard
// for the hand-off: the thread id of a LOCK record in the self ring comes
// off the wire like any other and names the coordinator's thread only
// modulo the worker count.
func TestWireThreadIDOnSelfRecordOnlyPicksAThread(t *testing.T) {
	c, region := testCluster(t, Options{})
	m := primaryOfRegion(c, region)
	addr := writeObjectIn(t, c, m, region, []byte("aaaaaaaa"))
	c.RunFor(20 * sim.Millisecond)
	rep := m.replica(region)
	version := regionmem.Version(rep.mem.ReadHeader(int(addr.Off)))

	id := proto.TxID{Config: m.config.ID, Machine: uint16(m.ID), Thread: 65535, Local: 1}
	busy := m.WorkerBusy()
	appendRecord(t, m, m.ID, &proto.Record{
		Type: proto.RecLock, Tx: id, Regions: []uint32{region},
		Writes: []proto.ObjectWrite{{Addr: addr, Version: version, Allocated: true, Value: []byte("bbbbbbbb")}},
	})
	c.RunFor(50 * sim.Microsecond)
	if rt := m.pend[mtlOf(id)]; rt == nil || len(rt.lockedObjs) != 1 {
		t.Fatalf("LOCK record of thread 65535 not processed: %+v", rt)
	}
	if m.verdicts.Len() != 1 {
		t.Fatalf("%d verdict carriers back in the pool, want the one that ran", m.verdicts.Len())
	}
	// The record was handled where it landed, on no worker; the verdict's
	// hand-off is the only work left, on worker 65535 mod 8.
	for i, b := range m.WorkerBusy() {
		var want sim.Time
		if i == 65535%m.Threads() {
			want = cpuLocal
		}
		if b-busy[i] != want {
			t.Fatalf("worker %d was busy %v, want %v", i, b-busy[i], want)
		}
	}
	appendRecord(t, m, m.ID, &proto.Record{Type: proto.RecAbort, Tx: id})
	appendRecord(t, m, m.ID, &proto.Record{
		Type: proto.RecTruncate, Tx: proto.TxID{Config: m.config.ID, Machine: uint16(m.ID)},
		TruncIDs: []uint64{packTruncID(65535, 1)},
	})
	c.RunFor(50 * sim.Microsecond)
	if len(m.pend) != 0 || regionmem.Locked(rep.mem.ReadHeader(int(addr.Off))) {
		t.Fatalf("transaction of thread 65535 not aborted and truncated: %d pending", len(m.pend))
	}
}

// TestOwnRecordsAreNeverPolled: over a local-primary commit and its
// truncation, no poll of the self ring is ever scheduled, and after every
// event the self reader holds no frame that landed and was not handled.
func TestOwnRecordsAreNeverPolled(t *testing.T) {
	c, region := testCluster(t, Options{})
	m := primaryOfRegion(c, region)
	addr := writeObjectIn(t, c, m, region, []byte("aaaaaaaa"))
	c.RunFor(20 * sim.Millisecond)

	lr := m.peer(m.ID).logR
	lr.pollFn = func() { t.Fatal("the self ring was polled") }
	unhandled := func() {
		if lr.pollScheduled {
			t.Fatal("a poll of the self ring was scheduled")
		}
		if n := len(lr.rd.Poll()); n != 0 {
			t.Fatalf("the self reader holds %d landed frames nobody handled", n)
		}
	}
	snap := c.Counters.Snapshot()
	var done bool
	var txErr error
	update(t, m, 0, addr, []byte("bbbbbbbb"), &done, &txErr)
	runUntil(t, c, sim.Second, func() bool { unhandled(); return done })
	if txErr != nil {
		t.Fatalf("commit: %v", txErr)
	}
	// Past the truncation flush timer: the transaction's id reaches the self
	// ring in an explicit TRUNCATE, handled where it lands like the rest.
	for end := c.Now() + 2*c.Opts.TruncateFlushInterval; c.Now() < end && c.Eng.Step(); {
		unhandled()
	}
	d := c.Counters.Diff(snap)
	if d["rec LOCK"] != 1 || d["rec COMMIT-PRIMARY"] != 1 || d["explicit_truncate"] == 0 || d["rec TRUNCATE"] != d["explicit_truncate"] {
		t.Fatalf("want one LOCK, one COMMIT-PRIMARY and every explicit TRUNCATE handled: %v", d)
	}
	if len(m.pend) != 0 || lr.rd.Retained() != 0 {
		t.Fatalf("left behind: %d pending, %d frames retained in the self ring", len(m.pend), lr.rd.Retained())
	}
}

// TestSelfCommitPrimaryInstallsBeforeItsAck: a coordinator that is its own
// primary reports the commit on its COMMIT-PRIMARY's ack, and by then the
// record was handled where it landed: the object holds the new value at the
// next version, unlocked, with no lock owner.
func TestSelfCommitPrimaryInstallsBeforeItsAck(t *testing.T) {
	c, region := testCluster(t, Options{})
	m := primaryOfRegion(c, region)
	addr := writeObjectIn(t, c, m, region, []byte("aaaaaaaa"))
	c.RunFor(20 * sim.Millisecond)
	rep := m.replica(region)
	version := regionmem.Version(rep.mem.ReadHeader(int(addr.Off)))

	var done bool
	tx := m.Begin(0)
	tx.Read(addr, 8, func(_ []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(addr, []byte("bbbbbbbb"))
		tx.Commit(func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			word, data := objectAt(rep, int(addr.Off), 8)
			if regionmem.Locked(word) || regionmem.Version(word) != version+1 || string(data) != "bbbbbbbb" || len(rep.lockOwner) != 0 {
				t.Fatalf("commit reported with the object at version %d (was %d), locked=%v, %q, %d lock owners",
					regionmem.Version(word), version, regionmem.Locked(word), data, len(rep.lockOwner))
			}
			done = true
		})
	})
	runUntil(t, c, sim.Second, func() bool { return done })
}

// TestDeathBetweenSelfAppendAndLanding cuts power in the LocalOpTime window
// between the coordinator's item that appends its own LOCK record and the
// record landing. The memory write dies with the process: the record never
// reaches the log and nothing is locked, so after power returns the cluster
// ends in the state of a twin whose power failed before the append item ran.
func TestDeathBetweenSelfAppendAndLanding(t *testing.T) {
	run := func(between bool) string {
		c, region := testCluster(t, Options{Seed: 9})
		m := primaryOfRegion(c, region)
		addr := writeObjectIn(t, c, m, region, []byte("aaaaaaaa"))
		c.RunFor(20 * sim.Millisecond)

		const thread = 2
		rep := m.replica(region)
		locked := func() bool { return regionmem.Locked(rep.mem.ReadHeader(int(addr.Off))) }
		p := m.peer(m.ID)
		appended := p.logW.Appended()
		var done bool
		var txErr error
		update(t, m, thread, addr, []byte("AAAAAAAA"), &done, &txErr)
		if between {
			runUntil(t, c, sim.Second, func() bool { return p.logW.Appended() != appended })
		} else {
			runUntil(t, c, sim.Second, func() bool { return len(m.inflight) == 1 })
			if p.logW.Appended() != appended {
				t.Fatal("the LOCK record was appended")
			}
		}
		if locked() || len(m.pend) != 0 {
			t.Fatalf("the LOCK record was handled before it landed: locked=%v, %d pending", locked(), len(m.pend))
		}
		c.PowerFailure()
		c.RunFor(50 * sim.Millisecond)
		if n := len(p.logR.rd.Pending()); n != 0 || locked() {
			t.Fatalf("a write in flight when the power failed reached the log: %d frames, locked=%v", n, locked())
		}
		c.RestorePower()
		c.RunFor(300 * sim.Millisecond)

		if locked() {
			t.Fatal("object left locked")
		}
		for _, r := range conclusiveAudit(t, c) {
			if !r.Clean {
				t.Fatalf("backup differs from its primary: %v", r)
			}
		}
		return fmt.Sprintf("%sdone=%v err=%v", stateFingerprint(c), done, txErr)
	}
	if between, before := run(true), run(false); between != before {
		t.Fatalf("power failure between the self append and its landing:\n%s\npower failure before the append:\n%s", between, before)
	}
}
