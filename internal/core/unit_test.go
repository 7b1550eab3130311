package core

import (
	"errors"
	"testing"
	"testing/quick"

	"farm/internal/fabric"
	"farm/internal/proto"
	"farm/internal/ring"
	"farm/internal/sim"
)

// Focused unit tests for protocol helpers.

func TestTruncDomainAddAndLowBound(t *testing.T) {
	d := &idWindow{low: 1, ids: make(map[uint64]bool)}
	d.add(3)
	d.add(5)
	if d.has(1) || !d.has(3) || d.has(4) || !d.has(5) {
		t.Fatal("membership wrong")
	}
	d.add(1)
	d.add(2) // now 1,2,3 contiguous → low advances past 3
	if d.low != 4 {
		t.Fatalf("low = %d, want 4", d.low)
	}
	if len(d.ids) != 1 { // only 5 remains
		t.Fatalf("ids = %v", d.ids)
	}
	d.setLow(10)
	if !d.has(5) || !d.has(9) || d.has(10) {
		t.Fatal("setLow semantics wrong")
	}
	if len(d.ids) != 0 {
		t.Fatalf("ids not pruned: %v", d.ids)
	}
}

// TestTruncDomainQuick checks idWindow against a plain set over random
// schedules of add, setLow and has. Ids are drawn near the bound, where the
// contiguous prefix forms, and 2^32 and more above it, where an id off the
// wire can land: those must cost an entry each, never a range. The window's
// own invariants are checked after every step: nothing at or below the bound
// is kept, and the bound never sits on a member.
func TestTruncDomainQuick(t *testing.T) {
	type step struct {
		Op  uint8
		Val uint16
		Far uint8
	}
	f := func(start uint8, steps []step) bool {
		w := &idWindow{low: uint64(start), ids: make(map[uint64]bool)}
		model := map[uint64]bool{}
		modelLow := uint64(start)
		has := func(id uint64) bool { return id < modelLow || model[id] }
		id := func(s step) uint64 {
			v := w.low + uint64(s.Val%64)
			if s.Far%4 == 0 {
				v += uint64(s.Far) << 32
			}
			return v
		}
		for _, s := range steps {
			v := id(s)
			switch s.Op % 4 {
			case 0, 1:
				w.add(v)
				model[v] = true
			case 2:
				w.setLow(v)
				if v > modelLow {
					modelLow = v
				}
			}
			for _, probe := range []uint64{0, w.low - 1, w.low, w.low + 1, v, v + 1, v + 1<<32} {
				if w.has(probe) != has(probe) {
					t.Logf("has(%d) = %v, reference says %v", probe, w.has(probe), has(probe))
					return false
				}
			}
			if w.ids[w.low] || len(w.ids) > len(steps) {
				return false
			}
			for kept := range w.ids {
				if kept <= w.low {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	var none *idWindow // a coordinator thread the tables do not hold
	none.add(7)
	none.setLow(9)
	if none.has(0) || none.has(7) {
		t.Fatal("a nil window has members")
	}
}

func TestPackTruncIDRoundTrip(t *testing.T) {
	f := func(thread uint16, local uint64) bool {
		local &= 1<<48 - 1
		th, l := unpackTruncID(packTruncID(thread, local))
		return th == thread && l == local
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThreadTruncRetireOrder(t *testing.T) {
	c := New(Options{NumMachines: 2, Seed: 1})
	m := c.Machine(0)
	s := &m.truncThreads[0]
	if s.low != 1 {
		t.Fatalf("initial low %d", s.low)
	}
	s.add(2)
	s.add(3)
	if s.low != 1 {
		t.Fatal("low advanced past unretired 1")
	}
	s.add(1)
	if s.low != 4 {
		t.Fatalf("low = %d, want 4", s.low)
	}
	if len(s.ids) != 0 {
		t.Fatal("retired set not compacted")
	}
}

func TestCMSuccessorsRing(t *testing.T) {
	c := New(Options{NumMachines: 5, Seed: 1})
	succ := c.Machine(3).cmSuccessors()
	// CM is 0; ring order from 0: 1,2,3,4.
	want := []int{1, 2, 3, 4}
	if len(succ) != 4 {
		t.Fatalf("successors: %v", succ)
	}
	for i := range want {
		if succ[i] != want[i] {
			t.Fatalf("successors = %v, want %v", succ, want)
		}
	}
}

func TestRecoveryCoordinatorDeterministicAndMemberPreferring(t *testing.T) {
	c := New(Options{NumMachines: 5, Seed: 1})
	id := proto.TxID{Config: 1, Machine: 3, Thread: 2, Local: 9}
	// Coordinator alive: itself.
	for _, m := range c.Machines {
		if got := m.recoveryCoordinator(id); got != 3 {
			t.Fatalf("machine %d chose %d, want 3", m.ID, got)
		}
	}
	// Coordinator not a member: all machines agree on the same hash pick.
	dead := proto.TxID{Config: 1, Machine: 99, Thread: 2, Local: 9}
	first := c.Machine(0).recoveryCoordinator(dead)
	for _, m := range c.Machines {
		if got := m.recoveryCoordinator(dead); got != first {
			t.Fatalf("hash coordinators disagree: %d vs %d", got, first)
		}
	}
	if first == 99 {
		t.Fatal("picked a non-member")
	}
}

func TestPlacementRespectsFailureDomains(t *testing.T) {
	o := Options{NumMachines: 9, FailureDomains: 3, Seed: 1}
	c := New(o)
	regions, err := c.CreateRegions(0, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		rm := c.Machine(0).mapping(r)
		domains := map[int]bool{}
		for _, rep := range rm.Replicas {
			domains[c.Machine(0).config.Domains[rep]] = true
		}
		if len(domains) != 3 {
			t.Fatalf("region %d replicas %v share failure domains", r, rm.Replicas)
		}
	}
}

func TestPlacementBalances(t *testing.T) {
	c := New(Options{NumMachines: 6, Seed: 1})
	if _, err := c.CreateRegions(0, 12, 0); err != nil {
		t.Fatal(err)
	}
	// 12 regions × 3 replicas = 36 slots over 6 machines → 6 each.
	counts := map[uint16]int{}
	for _, cr := range c.Machine(0).cm.regions {
		if cr.rm != nil {
			for _, r := range cr.rm.Replicas {
				counts[r]++
			}
		}
	}
	for mID, n := range counts {
		if n < 4 || n > 8 {
			t.Fatalf("machine %d hosts %d replicas (want ≈6): %v", mID, n, counts)
		}
	}
}

func TestLocalityCoPlacement(t *testing.T) {
	c := New(Options{NumMachines: 6, Seed: 1})
	base, err := c.CreateRegions(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	co, err := c.CreateRegions(0, 3, base[0])
	if err != nil {
		t.Fatal(err)
	}
	want := c.Machine(0).mapping(base[0]).Replicas
	for _, r := range co {
		got := c.Machine(0).mapping(r).Replicas
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("locality hint ignored: %v vs %v", got, want)
			}
		}
	}
}

// TestValidationSwitchesToRPCOverThreshold runs a read-only and a read-write
// commit through each way validateSet checks a read set: three objects read
// one after another from one primary. The read-only commit's last read ran
// alone, so it validates two of them; the read-write commit, which also
// allocates an object in another region, validates all three.
func TestValidationSwitchesToRPCOverThreshold(t *testing.T) {
	type setup struct {
		c           *Cluster
		coord, prim *Machine
		region      uint32
		addrs       []proto.Addr
	}
	cases := []struct {
		name      string
		threshold int  // Options.ValidateRPCThreshold (0: the default, 4)
		local     bool // the coordinator is the objects' primary
		// before runs between the reads and Commit.
		before func(t *testing.T, s setup)
		err    error
		rpc    bool // one VALIDATE RPC instead of header reads
		none   bool // no verb at all
	}{
		{name: "local primary", local: true},
		{name: "one-sided reads"},
		{name: "one RPC over the threshold", threshold: 1, rpc: true},
		{name: "stale object", err: ErrConflict, before: func(t *testing.T, s setup) {
			// Both objects every commit validates change: two failing
			// verdicts, one report.
			commitBoth(t, s.c, s.prim, s.addrs[0], s.addrs[1], []byte("AAAAAAAA"), []byte("BBBBBBBB"))
		}},
		{name: "unanswered RPC", threshold: 1, rpc: true, err: ErrAborted, before: func(t *testing.T, s setup) {
			s.c.Net.SetLinkFault(fabric.MachineID(s.prim.ID), fabric.MachineID(s.coord.ID), fabric.LinkFault{DropProb: 1})
		}},
		{name: "primary not a member", err: ErrConflict, none: true, before: func(t *testing.T, s setup) {
			rm := *s.coord.mapping(s.region)
			rm.Replicas = append([]uint16{noSuchMachine}, rm.Replicas[1:]...)
			s.coord.region(s.region).mapping = &rm
		}},
	}
	for _, tc := range cases {
		for _, readOnly := range []bool{true, false} {
			c := New(Options{NumMachines: 5, Seed: 19, ValidateRPCThreshold: tc.threshold})
			region := regionWithPrimaryNotIn(t, c, 0, 1)
			prim, coord := c.Machine(int(c.Machine(0).mapping(region).Replicas[0])), c.Machine(1)
			if tc.local {
				coord = prim
			}
			// The written object's region has another primary, so a fault on
			// the read primary's link leaves the lock phase alone.
			other := regionWithPrimaryNotIn(t, c, prim.ID)
			var addrs []proto.Addr
			for _, v := range []string{"aaaaaaaa", "bbbbbbbb", "cccccccc"} {
				addrs = append(addrs, writeObjectIn(t, c, prim, region, []byte(v)))
			}
			c.RunFor(20 * sim.Millisecond)

			tx := coord.Begin(0)
			for _, a := range addrs {
				txRead(t, c, tx, a, 8)
			}
			want := uint64(2)
			if !readOnly {
				want = 3
				hint := proto.Addr{Region: other}
				allocated := false
				tx.Alloc(8, []byte("dddddddd"), &hint, func(_ proto.Addr, err error) {
					if err != nil {
						t.Fatalf("alloc: %v", err)
					}
					allocated = true
				})
				runUntil(t, c, sim.Second, func() bool { return allocated })
			}
			if tc.before != nil {
				tc.before(t, setup{c, coord, prim, region, addrs})
			}
			snap, net := c.Counters.Snapshot(), c.Net.Counters.Snapshot()
			var err error
			reports := 0
			tx.Commit(func(e error) { err = e; reports++ })
			runUntil(t, c, sim.Second, func() bool { return reports > 0 })
			c.RunFor(2 * txStallTimeout)
			diff, netDiff := c.Counters.Diff(snap), c.Net.Counters.Diff(net)

			kind := map[bool]string{true: "read-only", false: "read-write"}[readOnly]
			if reports != 1 || err != tc.err {
				t.Fatalf("%s, %s commit: %d reports, %v; want one, %v", tc.name, kind, reports, err, tc.err)
			}
			reads, rpcs, verbs := want, uint64(0), want
			switch {
			case tc.none:
				reads, verbs = 0, 0
			case tc.rpc:
				reads, rpcs, verbs = 0, 1, 0
			case tc.local:
				verbs = 0
			}
			if diff["validate_reads"] != reads || diff["validate_rpcs"] != rpcs || diff["sent VALIDATE"] != rpcs || netDiff["rdma_read"] != verbs {
				t.Fatalf("%s, %s commit: %d header reads, %d VALIDATE RPCs (%d sent), %d one-sided reads; want %d, %d, %d",
					tc.name, kind, diff["validate_reads"], diff["validate_rpcs"], diff["sent VALIDATE"], netDiff["rdma_read"], reads, rpcs, verbs)
			}
			// An unanswered RPC fails a read-only commit when its call fails,
			// and leaves a read-write commit, which holds locks, to the
			// stall sweep.
			var stalled, swept uint64
			if tc.name == "unanswered RPC" {
				if readOnly {
					stalled = 1
				} else {
					swept = 1
				}
			}
			if diff["tx_ro_validate_stalled"] != stalled || diff["tx_stall_aborted"] != swept {
				t.Fatalf("%s, %s commit: tx_ro_validate_stalled %d, tx_stall_aborted %d; want %d, %d",
					tc.name, kind, diff["tx_ro_validate_stalled"], diff["tx_stall_aborted"], stalled, swept)
			}
		}
	}
}

func TestBlockedRegionQueuesReads(t *testing.T) {
	c, region := testCluster(t, Options{NumMachines: 5, Seed: 23})
	addr := writeObject(t, c, c.Machine(0), []byte("qqqq"))
	m := c.Machine(2)
	// Manually block the region (as reconfiguration would) and issue a
	// read: it must not complete until the region is unblocked.
	m.region(region).blocked = true
	got := false
	tx := m.Begin(0)
	tx.Read(addr, 4, func(_ []byte, err error) {
		if err != nil {
			t.Errorf("read failed: %v", err)
		}
		got = true
	})
	c.RunFor(20 * sim.Millisecond)
	if got {
		t.Fatal("read completed against a blocked region")
	}
	m.unblockRegion(region)
	runUntil(t, c, sim.Second, func() bool { return got })
}

func TestVoteFromSawPrecedence(t *testing.T) {
	cases := []struct {
		saw  uint8
		want proto.Vote
	}{
		{proto.SawCommitPrimary | proto.SawLock, proto.VoteCommitPrimary},
		{proto.SawCommitRecovery, proto.VoteCommitPrimary},
		{proto.SawCommitBackup | proto.SawLock, proto.VoteCommitBackup},
		{proto.SawCommitBackup | proto.SawAbortRecovery, proto.VoteAbort},
		{proto.SawLock, proto.VoteLock},
		{proto.SawLock | proto.SawAbort, proto.VoteLock}, // normal abort ≠ abort-recovery
		{proto.SawLock | proto.SawAbortRecovery, proto.VoteAbort},
		{0, proto.VoteAbort},
	}
	for _, tc := range cases {
		if got := voteFromSaw(tc.saw); got != tc.want {
			t.Errorf("saw=%b: %v, want %v", tc.saw, got, tc.want)
		}
	}
}

func TestProtocolVocabularyExercised(t *testing.T) {
	// Tables 1 and 2: a run with failures must exercise every log record
	// type and every recovery message type the paper defines.
	o := recoveryOpts()
	c := New(o)
	if _, err := c.CreateRegions(0, 3, 0); err != nil {
		t.Fatal(err)
	}
	addr := writeObject(t, c, c.Machine(1), []byte("vocabvoc"))
	// Drive updates (LOCK/COMMIT-BACKUP/COMMIT-PRIMARY/TRUNCATE) plus a
	// conflict (ABORT) and a big-read-set commit (VALIDATE RPC).
	conflictSeen := false
	for i := 0; i < 50 && !conflictSeen; i++ {
		results := 0
		for j := 0; j < 2; j++ {
			tx := c.Machine(1 + j).Begin(0)
			tx.Read(addr, 8, func(_ []byte, err error) {
				if err != nil {
					results++
					return
				}
				tx.Write(addr, []byte{byte(i), byte(j), 2, 3, 4, 5, 6, 7})
				tx.Commit(func(err error) {
					if err != nil {
						conflictSeen = true
					}
					results++
				})
			})
		}
		runUntil(t, c, sim.Second, func() bool { return results == 2 })
	}
	// Failure: kill a machine mid-write-stream so recovery messages flow.
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
				c.Eng.After(100*sim.Microsecond, func() { loop(i + 1) })
				return
			}
			tx.Write(addr, []byte{i, 1, 1, 1, 1, 1, 1, 1})
			tx.Commit(func(error) { loop(i + 1) })
		})
	}
	loop(0)
	c.RunFor(10 * sim.Millisecond)
	rm := c.Machine(0).mapping(addr.Region)
	victim := int(rm.Replicas[0])
	if victim == 0 || victim == 1 {
		victim = int(rm.Replicas[1])
	}
	if victim == 0 || victim == 1 {
		victim = int(rm.Replicas[2])
	}
	c.Kill(victim)
	c.RunFor(400 * sim.Millisecond)
	stop = true
	c.RunFor(20 * sim.Millisecond)

	for _, rec := range []string{"LOCK", "COMMIT-BACKUP", "COMMIT-PRIMARY", "ABORT", "TRUNCATE"} {
		if c.Counters.Get("rec "+rec) == 0 {
			t.Errorf("Table 1 record type %s never used", rec)
		}
	}
	for _, msg := range []string{"LOCK-REPLY", "NEED-RECOVERY", "RECOVERY-VOTE",
		"NEW-CONFIG", "NEW-CONFIG-ACK", "NEW-CONFIG-COMMIT", "REGIONS-ACTIVE", "ALL-REGIONS-ACTIVE"} {
		if c.Counters.Get("msg "+msg) == 0 {
			t.Errorf("message type %s never used", msg)
		}
	}
	// Recovery decisions must have flowed one way or the other.
	if c.Counters.Get("msg COMMIT-RECOVERY")+c.Counters.Get("msg ABORT-RECOVERY") == 0 {
		t.Error("no recovery decisions exchanged")
	}
	// Every message that arrived must have found a registered handler.
	if n := c.Counters.Get("msg unknown"); n != 0 {
		t.Errorf("%d messages dropped with no registered handler", n)
	}
}

func TestPlacementRespectsCapacity(t *testing.T) {
	o := Options{NumMachines: 4, Seed: 1, MaxRegionsPerMachine: 3}
	c := New(o)
	// 4 machines × 3 slots = 12 replica slots = 4 regions at 3-way.
	regions, err := c.CreateRegions(0, 4, 0)
	if err != nil {
		t.Fatalf("within capacity: %v", err)
	}
	if len(regions) != 4 {
		t.Fatalf("allocated %d", len(regions))
	}
	counts := map[uint16]int{}
	for _, cr := range c.Machine(0).cm.regions {
		if cr.rm != nil {
			for _, r := range cr.rm.Replicas {
				counts[r]++
			}
		}
	}
	for id, n := range counts {
		if n > 3 {
			t.Fatalf("machine %d over capacity: %d", id, n)
		}
	}
	// The next allocation must fail cleanly.
	if _, err := c.CreateRegions(0, 1, 0); err == nil {
		t.Fatal("allocation beyond cluster capacity succeeded")
	}
}

// TestLogRingsMaterialiseOnFirstUse: every machine declares a receive ring
// per peer, but a ring's pages and reader exist only once a record was
// written to it — after a transaction, at its participants and nowhere
// else, a page or two of the ring (or of its machine's spares once the
// transaction truncated), not its capacity — and an untouched ring drains
// as the empty ring it is.
func TestLogRingsMaterialiseOnFirstUse(t *testing.T) {
	c, region := testCluster(t, Options{NumMachines: 12})
	made := func() (rings, bytes int) {
		for _, m := range c.Machines {
			if len(m.peers) != len(c.Machines) {
				t.Fatalf("machine %d declares %d rings, want one per machine", m.ID, len(m.peers))
			}
			for src, p := range m.peers {
				if p.logR.rd != nil {
					rings++
					bytes += p.logR.mem.HeldBytes()
				} else if p.logR.mem.HeldBytes() != 0 {
					t.Fatalf("m%d holds pages of the ring from m%d, which has no reader", m.ID, src)
				}
			}
			bytes += m.ringSpares.HeldBytes()
		}
		return
	}
	if rings, _ := made(); rings != 0 {
		t.Fatalf("%d rings materialised before any record was written", rings)
	}
	coord := c.Machine(5)
	addr := writeObjectIn(t, c, coord, region, []byte("first record"))
	c.RunFor(sim.Millisecond)
	rings, bytes := made()
	if want := c.Opts.Replication; rings != want || bytes < want*ring.PageSize || bytes > 2*want*ring.PageSize {
		t.Fatalf("%d rings (%d bytes) materialised by one transaction, want its %d participants', a page or two each", rings, bytes, want)
	}
	for _, r := range c.Machine(0).mapping(region).Replicas {
		if c.Machine(int(r)).peer(coord.ID).logR.rd == nil {
			t.Fatalf("participant %d has no ring from the coordinator", r)
		}
	}
	// Recovery drains all 12 rings of every survivor, materialised or not.
	victim := int(c.Machine(0).mapping(region).Replicas[1])
	c.Kill(victim)
	c.RunFor(200 * sim.Millisecond)
	if got := readObject(t, c, c.Machine((victim+1)%12), addr, 12); string(got) != "first record" {
		t.Fatalf("read %q after the failover", got)
	}
	if rings, _ := made(); rings > 3*c.Opts.Replication {
		t.Fatalf("draining materialised rings: %d exist", rings)
	}
}

// TestCommitFailuresAreCountedByCause: a commit refused for want of log
// space is an abort the application sees, but not a conflict; it counts in
// tx_no_log_space, not in tx_aborted.
func TestCommitFailuresAreCountedByCause(t *testing.T) {
	c, _ := testCluster(t, Options{LogCapacity: 1 << 10})
	m := c.Machine(0)
	addrs := make([]proto.Addr, 24)
	for i := range addrs {
		addrs[i] = writeObject(t, c, m, make([]byte, 64))
	}
	c.RunFor(sim.Millisecond)
	before := c.Counters.Snapshot()
	noSpace, other, done := 0, 0, 0
	for _, addr := range addrs { // all at once: more reservations than 1 KB of log holds
		tx := m.Begin(0)
		tx.Read(addr, 64, func(d []byte, err error) {
			if err != nil {
				t.Fatal(err)
			}
			tx.Write(addr, d)
			tx.Commit(func(err error) {
				done++
				switch {
				case errors.Is(err, ErrNoSpace):
					noSpace++
				case err != nil:
					other++
				}
			})
		})
	}
	runUntil(t, c, sim.Second, func() bool { return done == len(addrs) })
	diff := c.Counters.Diff(before)
	if noSpace == 0 {
		t.Fatal("no commit ran out of log space; the test needs a smaller log")
	}
	if got := diff["tx_no_log_space"]; got != uint64(noSpace) {
		t.Fatalf("tx_no_log_space = %d, want the %d ErrNoSpace reports", got, noSpace)
	}
	if diff["tx_aborted"] != uint64(other) || diff["tx_unavailable"] != 0 {
		t.Fatalf("tx_aborted = %d (want %d), tx_unavailable = %d", diff["tx_aborted"], other, diff["tx_unavailable"])
	}
}
