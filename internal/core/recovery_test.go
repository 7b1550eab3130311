package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"farm/internal/fabric"
	"farm/internal/history"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
)

// writeObjectIn commits a fresh allocation placed in a specific region.
func writeObjectIn(t *testing.T, c *Cluster, m *Machine, region uint32, data []byte) proto.Addr {
	t.Helper()
	hint := proto.Addr{Region: region}
	tx := m.Begin(0)
	var addr proto.Addr
	var done bool
	tx.Alloc(len(data), data, &hint, func(a proto.Addr, err error) {
		if err != nil {
			t.Fatalf("alloc in region %d: %v", region, err)
		}
		addr = a
		tx.Commit(func(err error) {
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			done = true
		})
	})
	runUntil(t, c, sim.Second, func() bool { return done })
	return addr
}

// recoveryOpts uses short leases so tests run fast.
func recoveryOpts() Options {
	o := Options{}
	o.NumMachines = 6
	o.LeaseDuration = 5 * sim.Millisecond
	o.Seed = 11
	return o
}

func TestReconfigurationAfterKill(t *testing.T) {
	c, region := testCluster(t, recoveryOpts())
	addr := writeObject(t, c, c.Machine(0), []byte("survive me"))
	c.RunFor(20 * sim.Millisecond)

	// Kill a backup of the region (not the primary, not the CM).
	rm := c.Machine(0).mapping(region)
	victim := int(rm.Replicas[1])
	if victim == 0 {
		victim = int(rm.Replicas[2])
	}
	c.Kill(victim)
	killAt := c.Now()
	c.RunFor(300 * sim.Millisecond)

	// A new configuration must have committed without the victim.
	for _, m := range c.Machines {
		if m.ID == victim || !m.alive {
			continue
		}
		if m.config.ID < 2 {
			t.Fatalf("machine %d still in config %d", m.ID, m.config.ID)
		}
		if m.config.Member(uint16(victim)) {
			t.Fatalf("victim still a member at machine %d", m.ID)
		}
	}
	if _, ok := c.TraceTime("config-commit", killAt); !ok {
		t.Fatal("no config-commit trace event")
	}
	// Region must have been remapped back to 3 replicas.
	rm2 := c.Machine(0).mapping(region)
	if len(rm2.Replicas) != 3 {
		t.Fatalf("replicas after remap: %v", rm2.Replicas)
	}
	for _, r := range rm2.Replicas {
		if int(r) == victim {
			t.Fatal("victim still a replica")
		}
	}
	// Data still readable.
	if got := readObject(t, c, c.Machine(0), addr, 10); string(got) != "survive me" {
		t.Fatalf("data lost: %q", got)
	}
}

// regionWithPrimaryNotIn allocates regions until one's primary avoids the
// given machines (so tests can kill the primary without touching the CM or
// the coordinator).
func regionWithPrimaryNotIn(t *testing.T, c *Cluster, avoid ...int) uint32 {
	t.Helper()
	bad := map[int]bool{}
	for _, a := range avoid {
		bad[a] = true
	}
	for i := 0; i < 12; i++ {
		regions, err := c.CreateRegions(0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		rm := c.Machine(0).mapping(regions[0])
		if rm != nil && !bad[int(rm.Replicas[0])] {
			return regions[0]
		}
	}
	t.Fatal("could not place a region with suitable primary")
	return 0
}

func TestPrimaryFailurePromotesBackupAndPreservesData(t *testing.T) {
	c, _ := testCluster(t, recoveryOpts())
	region := regionWithPrimaryNotIn(t, c, 0, 1, 2, 3)
	hint := proto.Addr{Region: region}
	_ = hint
	addr := writeObjectIn(t, c, c.Machine(1), region, []byte("primary-data"))
	// Update once more so versions are > 1 and backups applied via
	// truncation.
	done := false
	tx := c.Machine(2).Begin(0)
	tx.Read(addr, 12, func(_ []byte, err error) {
		tx.Write(addr, []byte("updated-data"))
		tx.Commit(func(err error) { done = true })
	})
	runUntil(t, c, sim.Second, func() bool { return done })
	c.RunFor(30 * sim.Millisecond)

	rm := c.Machine(0).mapping(region)
	oldPrimary := int(rm.Replicas[0])
	oldBackup := int(rm.Replicas[1])
	c.Kill(oldPrimary)
	c.RunFor(400 * sim.Millisecond)

	rm2 := c.Machine(0).mapping(region)
	if int(rm2.Replicas[0]) != oldBackup {
		t.Fatalf("promotion: new primary %d, want surviving backup %d", rm2.Replicas[0], oldBackup)
	}
	newCfg := c.Machine(0).config.ID
	if rm2.LastPrimaryChange != newCfg || rm2.LastReplicaChange != newCfg {
		t.Fatalf("epochs: %+v (config %d)", rm2, newCfg)
	}
	// Reads must work against the new primary.
	if got := readObject(t, c, c.Machine(3), addr, 12); string(got) != "updated-data" {
		t.Fatalf("data after promotion: %q", got)
	}
	// And updates must still commit (allocator recovery etc. done).
	c.RunFor(200 * sim.Millisecond)
	done = false
	tx2 := c.Machine(3).Begin(1)
	tx2.Read(addr, 12, func(_ []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		tx2.Write(addr, []byte("post-failure"))
		tx2.Commit(func(err error) {
			if err != nil {
				t.Fatalf("post-failure commit: %v", err)
			}
			done = true
		})
	})
	runUntil(t, c, sim.Second, func() bool { return done })
}

func TestDataRecoveryRestoresReplication(t *testing.T) {
	c, region := testCluster(t, recoveryOpts())
	m := c.Machine(1)
	var addrs []proto.Addr
	for i := 0; i < 20; i++ {
		addrs = append(addrs, writeObject(t, c, m, []byte{byte(i), 1, 2, 3}))
	}
	c.RunFor(30 * sim.Millisecond)

	rm := c.Machine(0).mapping(region)
	victim := int(rm.Replicas[1])
	if victim == 0 {
		victim = int(rm.Replicas[2])
	}
	c.Kill(victim)
	// Wait for reconfig + paced data recovery (region 1 MB, 8 KB blocks,
	// ~2 ms/block/thread-chain → well under 2 s with 8 threads).
	c.RunFor(2 * sim.Second)

	rm2 := c.Machine(0).mapping(region)
	newBackup := -1
	for _, r := range rm2.Replicas {
		if int(r) != int(rm.Replicas[0]) && int(r) != int(rm.Replicas[2]) && int(r) != victim {
			newBackup = int(r)
		}
	}
	if newBackup == -1 {
		// The new backup may equal old third replica ordering; find the
		// replica that was not in the old set.
		old := map[uint16]bool{}
		for _, r := range rm.Replicas {
			old[r] = true
		}
		for _, r := range rm2.Replicas {
			if !old[r] {
				newBackup = int(r)
			}
		}
	}
	if newBackup == -1 {
		t.Fatalf("no new backup: old %v new %v", rm.Replicas, rm2.Replicas)
	}
	if c.Counters.Get("regions_rereplicated") == 0 {
		t.Fatal("data recovery did not complete")
	}
	// The new backup's bytes must match the primary's for every object.
	pRep := c.Machine(int(rm2.Replicas[0])).replica(region)
	bRep := c.Machine(newBackup).replica(region)
	for _, a := range addrs {
		pw, pd := objectAt(pRep, int(a.Off), 4)
		bw, bd := objectAt(bRep, int(a.Off), 4)
		if pw != bw || !bytes.Equal(pd, bd) {
			t.Fatalf("replica divergence at %v", a)
		}
	}
}

func TestCMFailureRecovers(t *testing.T) {
	c, _ := testCluster(t, recoveryOpts())
	addr := writeObject(t, c, c.Machine(1), []byte("cm-test"))
	c.RunFor(20 * sim.Millisecond)

	c.Kill(0) // machine 0 is the CM
	c.RunFor(500 * sim.Millisecond)

	// Someone else must be CM in a committed new configuration.
	for _, m := range c.Machines {
		if !m.alive {
			continue
		}
		if m.config.ID < 2 {
			t.Fatalf("machine %d still in config %d", m.ID, m.config.ID)
		}
		if m.config.CM == 0 {
			t.Fatalf("machine %d still thinks 0 is CM", m.ID)
		}
	}
	// Exactly one CM.
	cms := 0
	for _, m := range c.Machines {
		if m.alive && m.IsCM() {
			cms++
		}
	}
	if cms != 1 {
		t.Fatalf("%d CMs after recovery", cms)
	}
	// The system still serves reads and commits.
	if got := readObject(t, c, c.Machine(2), addr, 7); string(got) != "cm-test" {
		t.Fatalf("read after CM failure: %q", got)
	}
	// And can still allocate regions via the new CM.
	if _, err := c.CreateRegions(3, 1, 0); err != nil {
		t.Fatalf("allocation after CM failure: %v", err)
	}
}

func TestOutcomePreservation(t *testing.T) {
	// Transactions in flight when a participant dies must either commit
	// everywhere or abort everywhere — and transactions already reported
	// committed must survive. We run a stream of updates while killing a
	// backup, then audit.
	c, _ := testCluster(t, recoveryOpts())
	m := c.Machine(1)
	addr := writeObject(t, c, m, []byte{0, 0, 0, 0, 0, 0, 0, 9})

	type result struct {
		val byte
		err error
	}
	var results []result
	stop := false
	var loop func(i byte)
	loop = func(i byte) {
		if stop {
			return
		}
		tx := m.Begin(int(i) % m.Threads())
		tx.Read(addr, 8, func(_ []byte, err error) {
			if err != nil {
				results = append(results, result{i, err})
				c.Eng.After(100*sim.Microsecond, func() { loop(i + 1) })
				return
			}
			tx.Write(addr, []byte{i, i, i, i, i, i, i, i})
			tx.Commit(func(err error) {
				results = append(results, result{i, err})
				loop(i + 1)
			})
		})
	}
	loop(1)
	c.RunFor(30 * sim.Millisecond)
	rm := c.Machine(0).mapping(addr.Region)
	victim := int(rm.Replicas[1])
	if victim == 0 || victim == 1 {
		victim = int(rm.Replicas[2])
	}
	c.Kill(victim)
	c.RunFor(500 * sim.Millisecond)
	stop = true
	c.RunFor(50 * sim.Millisecond)

	if len(results) < 10 {
		t.Fatalf("only %d transactions ran", len(results))
	}
	// The final value must correspond to the LAST successfully committed
	// transaction (monotone counter writes). Compute the last commit
	// *after* the read so trailing in-flight completions are counted.
	reader := 3
	if victim == 3 {
		reader = 4
	}
	got := readObject(t, c, c.Machine(reader), addr, 8)
	var lastOK byte
	for _, r := range results {
		if r.err == nil {
			lastOK = r.val
		}
	}
	if victim == 1 && got[0] == lastOK+1 {
		// The driver machine itself was killed with one transaction in
		// flight; recovery may legitimately commit it with no coordinator
		// left to report to (§5.3: outcomes are preserved, reporting is
		// best-effort once the coordinator is gone).
		lastOK++
	}
	if got[0] != lastOK {
		// One legal exception: a trailing transaction that was recovered
		// as committed after `stop` flipped. Accept value == lastOK or a
		// successfully committed successor recorded later.
		t.Fatalf("final value %d, last reported commit %d (results %d)", got[0], lastOK, len(results))
	}
	// No transaction may be reported with an unexpected error class.
	for _, r := range results {
		if r.err != nil && !errors.Is(r.err, ErrConflict) && !errors.Is(r.err, ErrAborted) &&
			!errors.Is(r.err, ErrUnavailable) && !errors.Is(r.err, ErrReadLocked) {
			t.Fatalf("unexpected error: %v", r.err)
		}
	}
}

func TestRecoveringTransactionCompletes(t *testing.T) {
	// Kill the primary of a region between LOCK and COMMIT-PRIMARY: the
	// transaction becomes recovering and must be finished by vote/decide
	// without hanging forever.
	c, _ := testCluster(t, recoveryOpts())
	region := regionWithPrimaryNotIn(t, c, 0, 1, 3)
	addr := writeObjectIn(t, c, c.Machine(1), region, []byte("xxxxxxxx"))
	c.RunFor(20 * sim.Millisecond)
	rm := c.Machine(0).mapping(region)
	primary := int(rm.Replicas[0])

	var txErr error
	txDone := false
	tx := c.Machine(1).Begin(0)
	tx.Read(addr, 8, func(_ []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(addr, []byte("yyyyyyyy"))
		// Kill the primary at the exact moment commit starts.
		c.Kill(primary)
		tx.Commit(func(err error) { txErr, txDone = err, true })
	})
	c.RunFor(2 * sim.Second)
	if !txDone {
		t.Fatal("recovering transaction never completed")
	}
	// Either outcome is legal; state must match the outcome.
	c.RunFor(100 * sim.Millisecond)
	got := readObject(t, c, c.Machine(3), addr, 8)
	if txErr == nil && string(got) != "yyyyyyyy" {
		t.Fatalf("reported committed but value %q", got)
	}
	if txErr != nil && string(got) != "xxxxxxxx" {
		t.Fatalf("reported aborted (%v) but value %q", txErr, got)
	}
	// Every message type rides the one stamped carrier, so reconfiguration
	// and recovery traffic has delivery histograms like the commit path's.
	for _, name := range []string{"NEW-CONFIG", "RECOVERY-VOTE"} {
		if h := c.MsgLatency.Get(name); h == nil || h.Count() == 0 {
			t.Errorf("no delivery-latency histogram for %s after a kill and recovery", name)
		}
	}
}

func TestEvictedMachineStopsOperating(t *testing.T) {
	// A machine cut off by a partition is evicted; when the partition
	// heals, its one-sided operations must be ignored by members (precise
	// membership) — here we check it at least stops being a member and the
	// cluster continues without it.
	c, _ := testCluster(t, recoveryOpts())
	addr := writeObject(t, c, c.Machine(1), []byte("pppp"))
	c.RunFor(20 * sim.Millisecond)

	victim := 5
	c.Partition(map[int]int{victim: 1})
	c.RunFor(400 * sim.Millisecond)
	for _, m := range c.Machines {
		if m.ID == victim {
			continue
		}
		if m.config.Member(uint16(victim)) {
			t.Fatalf("machine %d still considers %d a member", m.ID, victim)
		}
	}
	c.Heal()
	c.RunFor(50 * sim.Millisecond)
	// Cluster still works.
	if got := readObject(t, c, c.Machine(2), addr, 4); string(got) != "pppp" {
		t.Fatalf("read after eviction: %q", got)
	}
}

func TestMinorityPartitionDoesNotReconfigure(t *testing.T) {
	c, _ := testCluster(t, recoveryOpts())
	c.RunFor(20 * sim.Millisecond)
	// Partition machines {4,5} away from {0,1,2,3}.
	c.Partition(map[int]int{4: 1, 5: 1})
	c.RunFor(400 * sim.Millisecond)
	// The majority side reconfigured to exclude 4 and 5.
	m0 := c.Machine(0)
	if m0.config.Member(4) || m0.config.Member(5) {
		t.Fatal("majority did not evict minority")
	}
	// The minority side must NOT have installed a new configuration of its
	// own making (it cannot win the ZK CAS nor a probe majority).
	for _, id := range []int{4, 5} {
		m := c.Machine(id)
		if m.IsCM() && m.config.ID > 1 {
			t.Fatalf("minority machine %d became CM of config %d", id, m.config.ID)
		}
	}
}

func TestCorrelatedFailureDomain(t *testing.T) {
	o := recoveryOpts()
	o.NumMachines = 9
	o.FailureDomains = 3
	c := New(o)
	if _, err := c.CreateRegions(0, 3, 0); err != nil {
		t.Fatal(err)
	}
	addr := writeObject(t, c, c.Machine(1), []byte("domain-safe"))
	c.RunFor(30 * sim.Millisecond)

	// Replicas must span three distinct domains, so killing any one
	// domain leaves ≥ 2 copies.
	rm := c.Machine(1).mapping(addr.Region)
	domains := map[int]bool{}
	for _, r := range rm.Replicas {
		domains[c.Machine(0).config.Domains[r]] = true
	}
	if len(domains) != 3 {
		t.Fatalf("replicas share domains: %v", rm.Replicas)
	}

	// Kill domain 1 entirely (machines 1, 4, 7; CM 0 survives).
	killed := c.KillDomain(1)
	if killed != 3 {
		t.Fatalf("killed %d machines", killed)
	}
	c.RunFor(time800ms())
	if got := readObject(t, c, c.Machine(0), addr, 11); string(got) != "domain-safe" {
		t.Fatalf("data lost in correlated failure: %q", got)
	}
	for _, m := range c.Machines {
		if !m.alive {
			continue
		}
		for _, dead := range []uint16{1, 4, 7} {
			if m.config.Member(dead) {
				t.Fatalf("machine %d still member after domain kill", dead)
			}
		}
	}
}

func time800ms() sim.Time { return 800 * sim.Millisecond }

func TestThroughputRecoversAfterFailure(t *testing.T) {
	// The headline claim: throughput returns to (near) pre-failure levels
	// within tens of milliseconds of the lease expiring.
	o := recoveryOpts()
	o.NumMachines = 6
	c := New(o)
	if _, err := c.CreateRegions(0, 4, 0); err != nil {
		t.Fatal(err)
	}
	// Seed objects.
	var addrs []proto.Addr
	for i := 0; i < 40; i++ {
		addrs = append(addrs, writeObject(t, c, c.Machine(i%6), []byte{byte(i), 0, 0, 0}))
	}
	c.RunFor(30 * sim.Millisecond)

	// Drive a closed-loop workload from every surviving machine.
	commits := sim.NewEngine(0) // unused; placeholder to avoid confusion
	_ = commits
	committedAt := make([]sim.Time, 0, 100000)
	victim := 5
	for mi := 0; mi < 6; mi++ {
		if mi == victim {
			continue
		}
		m := c.Machine(mi)
		for th := 0; th < 4; th++ {
			th := th
			var loop func(i int)
			loop = func(i int) {
				if !m.Alive() {
					return
				}
				a := addrs[(i*7+mi*13+th*29)%len(addrs)]
				tx := m.Begin(th)
				tx.Read(a, 4, func(_ []byte, err error) {
					if err != nil {
						c.Eng.After(50*sim.Microsecond, func() { loop(i + 1) })
						return
					}
					tx.Write(a, []byte{byte(i), 1, 1, 1})
					tx.Commit(func(err error) {
						if err == nil {
							committedAt = append(committedAt, c.Now())
						}
						loop(i + 1)
					})
				})
			}
			loop(th)
		}
	}
	c.RunFor(100 * sim.Millisecond)
	killAt := c.Now()
	c.Kill(victim)
	c.RunFor(400 * sim.Millisecond)

	// Build a 1 ms timeline of commits.
	tl := map[int64]int{}
	for _, at := range committedAt {
		tl[int64(at/sim.Millisecond)]++
	}
	pre := 0.0
	for ms := int64(50); ms < int64(killAt/sim.Millisecond); ms++ {
		pre += float64(tl[ms])
	}
	pre /= float64(int64(killAt/sim.Millisecond) - 50)
	if pre < 1 {
		t.Fatalf("pre-failure throughput too low to measure: %v/ms", pre)
	}
	// Find when throughput returns to 80% of pre-failure.
	recoveredMs := int64(-1)
	for ms := int64(killAt/sim.Millisecond) + 1; ms < int64(c.Now()/sim.Millisecond)-5; ms++ {
		if float64(tl[ms]) >= 0.8*pre && float64(tl[ms+1]) >= 0.5*pre {
			recoveredMs = ms
			break
		}
	}
	if recoveredMs < 0 {
		t.Fatal("throughput never recovered to 80% of pre-failure")
	}
	recovery := recoveredMs - int64(killAt/sim.Millisecond)
	// Lease 5 ms: the paper's shape is recovery within tens of ms. Allow
	// up to 100 ms in the scaled simulation.
	if recovery > 100 {
		t.Fatalf("throughput recovery took %d ms, want < 100 ms", recovery)
	}
	t.Logf("throughput recovered %d ms after kill (pre=%.1f commits/ms)", recovery, pre)
}

// TestRecoveringTransactionsChainedOnOneObject builds two recovering
// transactions chained on one object and checks the lock outlives the first
// decision. A (v → v+1) is applied at the primary and reported; its
// truncation is still queued at its coordinator, so the backups hold its
// COMMIT-BACKUP record and the object at v. B read v+1, holds the lock and
// has its COMMIT-BACKUP records (v+1 → v+2) at both backups when the primary
// dies. The promoted backup locks the object for A; B finds it held. B's
// recovery coordinator is kept busy, so A is decided first — and from then
// until B's COMMIT-RECOVERY installs v+2 the object must stay locked, for B:
// a writer hammers it the whole time. Left free it takes the writer's lock at
// v+1; B installs v+2 over that lock and the writer's own v+2 is gated away.
func TestRecoveringTransactionsChainedOnOneObject(t *testing.T) {
	o := recoveryOpts()
	o.History = true
	o.TruncateFlushInterval = sim.Second // A's truncation stays queued: no carrier, no flush
	c, _ := testCluster(t, o)
	region := regionWithPrimaryNotIn(t, c, 0)
	old := primaryOfRegion(c, region)
	var outsiders []*Machine
	for _, m := range c.Machines {
		if m.replica(region) == nil && !m.IsCM() {
			outsiders = append(outsiders, m)
		}
	}
	if len(outsiders) < 2 {
		t.Fatalf("need two coordinators outside region %d's replicas, have %d", region, len(outsiders))
	}
	coordA, coordB, writer := outsiders[0], outsiders[1], outsiders[len(outsiders)-1]
	addr := writeObjectIn(t, c, coordA, region, u64b(0))
	c.RunFor(20 * sim.Millisecond)
	// With no flush timer, truncations that found no carrier go out by hand:
	// the set-up transaction's here — A's must not — and the last ones
	// before the audit, which waits for the region's transactions to go.
	flushTruncations := func() {
		for _, m := range c.Machines {
			for _, p := range m.peers {
				if m.alive && m.isMember(p.id) {
					m.flushTruncations(p)
				}
			}
		}
		c.RunFor(sim.Millisecond)
	}
	flushTruncations()
	version := func(m *Machine) uint64 {
		return regionmem.Version(m.replica(region).mem.ReadHeader(int(addr.Off)))
	}
	v := version(old)

	committed := 0
	increment := func(m *Machine, thread int, done func(error)) {
		tx := m.Begin(thread)
		tx.Read(addr, 8, func(data []byte, err error) {
			if err != nil {
				tx.Abort()
				done(err)
				return
			}
			tx.Write(addr, u64b(u64(data)+1))
			tx.Commit(func(err error) {
				if err == nil {
					committed++
				}
				done(err)
			})
		})
	}

	var doneA, doneB bool
	var errA, errB error
	increment(coordA, 0, func(err error) { doneA, errA = true, err })
	runUntil(t, c, sim.Second, func() bool { return doneA && version(old) == v+1 })
	const threadB = 3
	increment(coordB, threadB, func(err error) { doneB, errB = true, err })
	runUntil(t, c, sim.Second, func() bool {
		for _, ct := range coordB.inflight {
			if ct.phase == phaseCommitPrimary {
				return true
			}
		}
		return false
	})
	c.Kill(old.ID)

	stop := false
	var hammer func(error)
	hammer = func(error) {
		if !stop {
			c.Eng.After(5*sim.Microsecond, func() { increment(writer, 1, hammer) })
		}
	}
	hammer(nil)

	// Lock recovery at the promoted backup: both transactions, one lock.
	var next *Machine
	var rr *regionRecovery
	runUntil(t, c, sim.Second, func() bool {
		next = primaryOfRegion(c, region)
		if next == old || next.recov == nil {
			return false
		}
		rr = next.regions[region].recovery
		return rr != nil && rr.phase == 2
	})
	rep := next.replica(region)
	var idA, idB proto.TxID
	for _, rt := range rr.txs {
		switch int(rt.id.Machine) {
		case coordA.ID:
			idA = rt.id
		case coordB.ID:
			idB = rt.id
		}
	}
	if len(rr.txs) != 2 || idA == (proto.TxID{}) || idB == (proto.TxID{}) || version(next) != v {
		t.Fatalf("the chain was not built: %d recovering transactions (A %v, B %v), object at v%d, want v%d",
			len(rr.txs), idA, idB, version(next), v)
	}
	if owner := rep.lockOwner[addr.Off]; owner != idA {
		t.Fatalf("after lock recovery the object is held for %v, want A %v", owner, idA)
	}
	// B's votes go to its coordinator thread: A is decided well before B.
	coordB.pool.ByIndex(threadB).Do(300*sim.Microsecond, nil)
	runUntil(t, c, sim.Second, func() bool { return version(next) == v+1 })
	if owner, held := rep.lockOwner[addr.Off]; !held || owner != idB ||
		!regionmem.Locked(rep.mem.ReadHeader(int(addr.Off))) {
		t.Errorf("A's decision left the object free (owner %v, held %v) with B undecided", owner, held)
	}
	runUntil(t, c, sim.Second, func() bool { return doneB })
	c.RunFor(100 * sim.Millisecond)
	stop = true
	c.RunFor(30 * sim.Millisecond)
	flushTruncations()

	if errA != nil || errB != nil {
		t.Fatalf("A: %v, B: %v: both reached COMMIT-BACKUP everywhere and must commit", errA, errB)
	}
	if committed < 100 {
		t.Fatalf("only %d increments committed: the writer never got going", committed)
	}
	if got := u64(readObject(t, c, coordA, addr, 8)); got != uint64(committed) {
		t.Errorf("counter reads %d after %d committed increments", got, committed)
	}
	if r := history.Check(c.Hist.Export()); !r.Ok() {
		t.Errorf("history checker: %v", r.Violations)
	}
	for _, r := range conclusiveAudit(t, c) {
		if !r.Clean {
			t.Errorf("backup differs from its primary: %v", r)
		}
	}
}

// TestReportedCommitBehindAHoleSurvivesADoubleFailure: a coordinator's
// frame to one backup is dropped and retried while a transaction's
// COMMIT-BACKUP lands behind it, and the primary and the other backup die
// inside the retry window, which leaves that backup the region's sole
// survivor. Its recovery drain cannot parse past the hole, so it promotes
// without the COMMIT-BACKUP in its NVRAM and rejects the record as stale
// when the hole fills. A writer that passed on the ack of the frame behind
// the hole let the coordinator report that commit, which was then lost;
// with acks in psn order the report waits for the hole, and recovery
// decides the transaction instead. Every commit reported is in the
// survivor's state, and the history checks.
func TestReportedCommitBehindAHoleSurvivesADoubleFailure(t *testing.T) {
	o := recoveryOpts()
	o.History = true
	c, _ := testCluster(t, o)
	var region uint32
	var prim, survivor, other, coord *Machine
	for i := 0; prim == nil; i++ {
		if i == 20 {
			t.Fatal("could not place a region away from the CM")
		}
		regions, err := c.CreateRegions(0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		rm := c.Machine(0).mapping(regions[0])
		if !slices.ContainsFunc(rm.Replicas, func(r uint16) bool { return c.Machine(int(r)).IsCM() }) {
			region = regions[0]
			prim, survivor, other = c.Machine(int(rm.Replicas[0])), c.Machine(int(rm.Replicas[1])), c.Machine(int(rm.Replicas[2]))
		}
	}
	_, coord = primaryAndOutsider(t, c, region)
	addr := writeObjectIn(t, c, coord, region, u64b(0))
	c.RunFor(20 * sim.Millisecond)

	src, dst := fabric.MachineID(coord.ID), fabric.MachineID(survivor.ID)
	c.Net.CutLink(src, dst)
	appendRecord(t, coord, survivor.ID, &proto.Record{
		Type: proto.RecTruncate, Tx: proto.TxID{Config: coord.config.ID, Machine: uint16(coord.ID)},
	})
	c.RunFor(10 * sim.Microsecond) // the frame is dropped and will be retried
	c.Net.HealLink(src, dst)
	committed := 0
	tx := coord.Begin(0)
	tx.Read(addr, 8, func(data []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(addr, u64b(u64(data)+1))
		tx.Commit(func(err error) {
			if err == nil {
				committed++
			}
		})
	})
	// Long enough for every record of the transaction to land; the retries
	// of the dropped frame keep failing until the link heals, 30 ms on.
	c.RunFor(200 * sim.Microsecond)
	c.Net.CutLink(src, dst)
	c.Kill(prim.ID)
	c.Kill(other.ID)
	c.Eng.After(30*sim.Millisecond, func() { c.Net.HealLink(src, dst) })
	c.RunFor(100 * sim.Millisecond)
	runUntil(t, c, sim.Second, func() bool { return recoveryLeft(c) == "" })

	if next := primaryOfRegion(c, region); next != survivor {
		t.Fatalf("region %d is on m%d, want the survivor m%d", region, next.ID, survivor.ID)
	}
	if got := u64(readObject(t, c, coord, addr, 8)); got != uint64(committed) {
		t.Errorf("the survivor's object reads %d after %d reported commits", got, committed)
	}
	if r := history.Check(c.Hist.Export()); !r.Ok() {
		t.Errorf("history checker: %v", r.Violations)
	}
}

// recoveryLeft names what keeps an alive member from having finished
// recovery, "" when nothing does: a blocked region, an inactive primary, a
// replica awaiting data or allocator recovery, a recovering participant
// entry, an undecided vote collector or a call.
func recoveryLeft(c *Cluster) string {
	for _, m := range c.Machines {
		if !m.alive || !m.isMember(m.ID) {
			continue
		}
		for i := range m.regions {
			if rs := &m.regions[i]; rs.blocked || rs.rep != nil && rs.rep.primary && !rs.rep.active {
				return fmt.Sprintf("m%d: region %d blocked or inactive", m.ID, i)
			}
			if rep := m.regions[i].rep; rep != nil && (rep.needsDataRecovery || rep.allocRecovering) {
				return fmt.Sprintf("m%d: region %d awaits data or allocator recovery", m.ID, i)
			}
		}
		for _, rt := range m.pend {
			if m.txIsRecovering(rt) {
				return fmt.Sprintf("m%d: %v is recovering", m.ID, rt.id)
			}
		}
		if m.recov != nil {
			for id, vc := range m.recov.votes {
				if !vc.decided {
					return fmt.Sprintf("m%d: %v undecided", m.ID, id)
				}
			}
		}
		if len(m.calls) > 0 {
			return fmt.Sprintf("m%d: %d calls open", m.ID, len(m.calls))
		}
	}
	return ""
}

// TestRecoveryOutlivesALostMessage: a region's primary dies under a closed
// loop, having coordinated a transaction that writes its region R and
// another, R2, whose primary holds the LOCK record. Of R's replicas only
// the second backup holds the COMMIT-BACKUP record: the promoted first
// backup fetches it (FETCH-TX-STATE), replicates it to R's new backup and
// votes commit-backup, R2 votes lock, and the transaction commits. In each
// case the first k deliveries of some message types between two machines
// are lost; to make REQUEST-VOTE go out, its case also delays R's vote by
// losing two fetches. ALL-REGIONS-ACTIVE is lost at every member but the
// CM, REGION-ACTIVE only R's, at every member but R's new primary. Every
// §5.3 exchange, the CM's NEW-CONFIG push and the *-REGIONS-ACTIVE reports
// are calls the table resends, and ALL-REGIONS-ACTIVE unblocks a region
// whose REGION-ACTIVE was lost, so recovery, data and allocator recovery
// included, still finishes within the bound.
func TestRecoveryOutlivesALostMessage(t *testing.T) {
	for _, tc := range []struct {
		name string
		lost []interface{}
		k    int
		// ofR loses only REGION-ACTIVE messages naming R.
		ofR bool
	}{
		{"NEED-RECOVERY", []interface{}{&proto.NeedRecovery{}}, 2, false},
		{"FETCH-TX-STATE", []interface{}{&proto.FetchTxState{}}, 1, false},
		{"SEND-TX-STATE", []interface{}{&proto.SendTxState{}}, 1, false},
		{"REPLICATE-TX-STATE", []interface{}{&proto.ReplicateTxState{}}, 1, false},
		{"REPLICATE-TX-STATE-ACK", []interface{}{&proto.ReplicateTxStateAck{}}, 1, false},
		{"RECOVERY-VOTE", []interface{}{&proto.RecoveryVote{}}, 1, false},
		{"REQUEST-VOTE", []interface{}{&proto.RequestVote{}, &proto.FetchTxState{}}, 2, false},
		{"COMMIT-RECOVERY", []interface{}{&proto.CommitRecovery{}}, 1, false},
		{"RECOVERY-DECISION-ACK", []interface{}{&proto.RecoveryDecisionAck{}}, 1, false},
		{"TRUNCATE-RECOVERY", []interface{}{&proto.TruncateRecovery{}}, 1, false},
		{"NEW-CONFIG-ACK", []interface{}{&proto.NewConfigAck{}}, 1, false},
		{"NEW-CONFIG-COMMIT", []interface{}{&proto.NewConfigCommit{}}, 1, false},
		{"REGIONS-ACTIVE", []interface{}{&proto.RegionsActive{}}, 1, false},
		{"ALL-REGIONS-ACTIVE", []interface{}{&proto.AllRegionsActive{}}, 4, false},
		{"REGION-ACTIVE", []interface{}{&regionActiveAnnounce{}}, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := testCluster(t, recoveryOpts())
			region := regionWithPrimaryNotIn(t, c, 0)
			victim, client := primaryOfRegion(c, region), c.Machine(0)
			replicas := client.mapping(region).Replicas
			other := regionWithPrimaryNotIn(t, c, int(replicas[0]), int(replicas[1]), int(replicas[2]))
			addr := writeObjectIn(t, c, client, region, u64b(0))
			addr2 := writeObjectIn(t, c, client, other, u64b(0))
			counter := writeObjectIn(t, c, client, region, u64b(0))
			c.RunFor(20 * sim.Millisecond)
			write := func(a proto.Addr, v uint64) []proto.ObjectWrite {
				rep := primaryOfRegion(c, a.Region).replica(a.Region)
				return []proto.ObjectWrite{{Addr: a, Version: regionmem.Version(rep.mem.ReadHeader(int(a.Off))), Value: u64b(v)}}
			}
			id := proto.TxID{Config: victim.config.ID, Machine: uint16(victim.ID), Local: 1 << 40}
			regions := []uint32{region, other}
			appendRecord(t, victim, victim.ID, &proto.Record{Type: proto.RecLock, Tx: id, Regions: regions, Writes: write(addr, 7)})
			appendRecord(t, victim, int(replicas[2]), &proto.Record{Type: proto.RecCommitBackup, Tx: id, Regions: regions, Writes: write(addr, 7)})
			appendRecord(t, victim, primaryOfRegion(c, other).ID, &proto.Record{Type: proto.RecLock, Tx: id, Regions: regions, Writes: write(addr2, 9)})
			runUntil(t, c, sim.Millisecond, func() bool {
				return c.Machine(int(replicas[2])).pend[mtlOf(id)] != nil && primaryOfRegion(c, other).pend[mtlOf(id)] != nil
			})

			dropped := 0
			for _, lost := range tc.lost {
				n := 0
				for _, m := range c.Machines {
					h := m.tp.reg.Lookup(lost)
					fn, self := h.Fn, m.ID
					h.Fn = func(src int, msg interface{}) {
						if src != self && n < tc.k && (!tc.ofR || msg.(*regionActiveAnnounce).Region == region) {
							n, dropped = n+1, dropped+1
							return
						}
						fn(src, msg)
					}
				}
			}
			stop, committed := false, 0
			var loop func()
			next := func() {
				if !stop {
					c.Eng.After(20*sim.Microsecond, loop)
				}
			}
			loop = func() {
				tx := client.Begin(1)
				tx.Read(counter, 8, func(data []byte, err error) {
					if err != nil {
						tx.Abort()
						next()
						return
					}
					tx.Write(counter, u64b(u64(data)+1))
					tx.Commit(func(err error) {
						if err == nil {
							committed++
						}
						next()
					})
				})
			}
			loop()
			c.Kill(victim.ID)
			const bound = 300 * sim.Millisecond
			deadline := c.Now() + bound
			left := "no configuration without the dead primary committed"
			for c.Now() < deadline && left != "" {
				c.RunFor(sim.Millisecond)
				if client.config.Member(uint16(victim.ID)) || !client.configCommitted {
					continue
				}
				left = recoveryLeft(c)
			}
			if left != "" {
				t.Fatalf("%d of %d %s lost: %s after %v", dropped, tc.k, tc.name, left, bound)
			}
			if dropped != tc.k*len(tc.lost) {
				t.Fatalf("%d of %d messages lost: nothing tested", dropped, tc.k*len(tc.lost))
			}
			before := committed
			c.RunFor(10 * sim.Millisecond)
			stop = true
			got, got2 := u64(readObject(t, c, client, addr, 8)), u64(readObject(t, c, client, addr2, 8))
			if got != 7 || got2 != 9 || committed-before < 10 {
				t.Fatalf("objects read %d and %d, want the recovered writes' 7 and 9; %d increments committed after recovery",
					got, got2, committed-before)
			}
		})
	}
}

// TestNewReplicaIsNoEvidenceForItsRegion: what a machine saw of a
// recovering transaction counts for the regions its records write to, not
// for every region the records list. A coordinator that is the primary of
// region B dies after LOCK reached the primary of region A and COMMIT-BACKUP
// both of A's backups, and before any replica of B was told anything. The
// reconfiguration gives B a new backup, which can only be one of A's three
// replicas — each of them holds a record of the transaction that names B.
// Were that to make B vote lock or commit-backup, the transaction would
// commit: A's write installed, B's nowhere to install from. Once chaos seed
// 110867 lost three units of money that way.
func TestNewReplicaIsNoEvidenceForItsRegion(t *testing.T) {
	c, _ := testCluster(t, recoveryOpts())
	// Two regions with no replica in common, B's primary not the CM.
	var a, b uint32
	for i := 0; i < 40 && a == 0; i++ {
		regions, err := c.CreateRegions(0, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		b = regions[0]
		rb := c.Machine(0).mapping(b).Replicas
		if c.Machine(int(rb[0])).IsCM() {
			continue
		}
	search:
		for id := range c.Machine(0).regions {
			rm := c.Machine(0).regions[id].mapping
			if rm == nil {
				continue
			}
			for _, x := range rm.Replicas {
				for _, y := range rb {
					if x == y {
						continue search
					}
				}
			}
			a = uint32(id)
			break
		}
	}
	if a == 0 {
		t.Fatal("no two regions with disjoint replica sets")
	}
	replicasA := c.Machine(0).mapping(a).Replicas
	victim := primaryOfRegion(c, b)
	reader := c.Machine(int(replicasA[1]))
	addrA := writeObjectIn(t, c, reader, a, []byte("aaaaaaaa"))
	addrB := writeObjectIn(t, c, reader, b, []byte("bbbbbbbb"))
	c.RunFor(20 * sim.Millisecond)
	versionAt := func(m *Machine, addr proto.Addr) uint64 {
		return regionmem.Version(m.replica(addr.Region).mem.ReadHeader(int(addr.Off)))
	}

	id := proto.TxID{Config: victim.config.ID, Machine: uint16(victim.ID), Thread: 0, Local: 1 << 40}
	regions := []uint32{a, b}
	writeA := []proto.ObjectWrite{{Addr: addrA, Version: versionAt(primaryOfRegion(c, a), addrA), Allocated: true, Value: []byte("AAAAAAAA")}}
	writeB := []proto.ObjectWrite{{Addr: addrB, Version: versionAt(victim, addrB), Allocated: true, Value: []byte("BBBBBBBB")}}
	appendRecord(t, victim, victim.ID, &proto.Record{Type: proto.RecLock, Tx: id, Regions: regions, Writes: writeB})
	appendRecord(t, victim, int(replicasA[0]), &proto.Record{Type: proto.RecLock, Tx: id, Regions: regions, Writes: writeA})
	for _, backup := range replicasA[1:] {
		appendRecord(t, victim, int(backup), &proto.Record{Type: proto.RecCommitBackup, Tx: id, Regions: regions, Writes: writeA})
	}
	runUntil(t, c, sim.Millisecond, func() bool {
		for _, r := range replicasA {
			if c.Machine(int(r)).pend[mtlOf(id)] == nil {
				return false
			}
		}
		return true
	})
	c.Kill(victim.ID)
	c.RunFor(300 * sim.Millisecond)

	joined := false
	for _, r := range c.Machine(0).mapping(b).Replicas {
		for _, x := range replicasA {
			joined = joined || r == x
		}
	}
	if !joined {
		t.Fatalf("region %d was re-replicated to %v, none of them a replica of region %d: nothing tested",
			b, c.Machine(0).mapping(b).Replicas, a)
	}
	gotA, gotB := readObject(t, c, reader, addrA, 8), readObject(t, c, reader, addrB, 8)
	if string(gotA) != "aaaaaaaa" || string(gotB) != "bbbbbbbb" {
		t.Fatalf("objects read %q and %q: no replica of region %d ever held its write, the transaction must abort whole", gotA, gotB, b)
	}
	for _, m := range c.Machines {
		if m.alive && m.pend[mtlOf(id)] != nil {
			t.Errorf("machine %d still holds the transaction", m.ID)
		}
	}
}

// TestReplicationAfterTruncationLeavesNoState: a REPLICATE-TX-STATE can
// reach a backup after the transaction's TRUNCATE-RECOVERY — a resend whose
// first send was answered late, or a first send the truncation overtook.
// The backup acknowledges it and keeps nothing: a pend entry made then is
// never truncated, and the region it writes never looks quiet to an audit
// again (`tatp_failover` seed 7's post-run audit, backup m8 of region 11).
func TestReplicationAfterTruncationLeavesNoState(t *testing.T) {
	c, region := testCluster(t, recoveryOpts())
	prim := primaryOfRegion(c, region)
	backup := c.Machine(int(prim.mapping(region).Replicas[1]))
	addr := writeObjectIn(t, c, prim, region, u64b(0))
	c.RunFor(20 * sim.Millisecond)

	id := proto.TxID{Config: backup.config.ID, Machine: uint16(prim.ID), Thread: 1, Local: 1 << 40}
	lock := &proto.Record{Type: proto.RecLock, Tx: id, Regions: []uint32{region},
		Writes: []proto.ObjectWrite{{Addr: addr, Version: 1, Value: u64b(7)}}}
	acks := c.Counters.Get("sent REPLICATE-TX-STATE-ACK")
	backup.tp.reg.Lookup(&proto.TruncateRecovery{}).Fn(prim.ID, &proto.TruncateRecovery{Config: backup.config.ID, Tx: id})
	backup.tp.reg.Lookup(&proto.ReplicateTxState{}).Fn(prim.ID,
		&proto.ReplicateTxState{ID: 1, Config: backup.config.ID, Region: region, Tx: id, Lock: lock})
	c.RunFor(sim.Millisecond)
	if rt := backup.pend[mtlOf(id)]; rt != nil {
		t.Fatalf("the late replication left a pend entry at m%d: saw %d", backup.ID, rt.saw)
	}
	if n := c.Counters.Get("sent REPLICATE-TX-STATE-ACK") - acks; n != 1 {
		t.Fatalf("%d acks sent, want 1", n)
	}
	for _, r := range collectAudit(t, c) {
		if !r.Conclusive || !r.Clean {
			t.Fatalf("audit after the late replication: %v", r)
		}
	}
}
