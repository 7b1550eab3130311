package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"farm/internal/fabric"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
)

// collectAudit runs a cluster-wide audit to completion and returns the
// per-region reports.
func collectAudit(t *testing.T, c *Cluster) []AuditReport {
	t.Helper()
	var reports []AuditReport
	done := false
	c.StartAudit(func(rs []AuditReport) { reports, done = rs, true })
	runUntil(t, c, sim.Second, func() bool { return done })
	return reports
}

// conclusiveAudit retries collectAudit until every report is conclusive
// (an audit racing background truncation can legitimately skip).
func conclusiveAudit(t *testing.T, c *Cluster) []AuditReport {
	t.Helper()
	for attempt := 0; ; attempt++ {
		reports := collectAudit(t, c)
		allDone := true
		for _, r := range reports {
			if !r.Conclusive {
				allDone = false
			}
		}
		if allDone {
			return reports
		}
		if attempt == 3 {
			t.Fatalf("audit still inconclusive after %d attempts: %v", attempt+1, reports)
		}
		c.RunFor(20 * sim.Millisecond)
	}
}

func TestAuditCleanAfterWorkload(t *testing.T) {
	c, _ := testCluster(t, Options{})
	m := c.Machine(1)
	addrs := make([]proto.Addr, 0, 8)
	for i := 0; i < 8; i++ {
		addrs = append(addrs, writeObject(t, c, m, []byte{byte(i), 1, 2, 3}))
	}
	// Update a few and free one, then let truncation reach the backups.
	for i := 0; i < 3; i++ {
		done := false
		tx := m.Begin(i)
		addr := addrs[i]
		tx.Read(addr, 4, func(_ []byte, err error) {
			if err != nil {
				t.Fatal(err)
			}
			tx.Write(addr, []byte{0xFF, byte(i), 0, 0})
			tx.Commit(func(err error) {
				if err != nil {
					t.Fatal(err)
				}
				done = true
			})
		})
		runUntil(t, c, sim.Second, func() bool { return done })
	}
	c.RunFor(50 * sim.Millisecond)

	for _, r := range conclusiveAudit(t, c) {
		if !r.Clean {
			t.Fatalf("audit not clean: %v", r)
		}
	}
	if c.Counters.Get("audit_divergence") != 0 {
		t.Fatalf("false positive: %s", c.Counters)
	}
}

func TestAuditDetectsLocalizesAndRepairsCorruption(t *testing.T) {
	c, region := testCluster(t, Options{})
	m := c.Machine(0)
	var addrs []proto.Addr
	for i := 0; i < 6; i++ {
		addrs = append(addrs, writeObject(t, c, m, []byte{byte(i), 9, 9, 9}))
	}
	c.RunFor(50 * sim.Millisecond)

	victim, off, ok := c.CorruptBackupObject(region, true)
	if !ok {
		t.Fatal("no allocated backup object to corrupt")
	}

	reports := conclusiveAudit(t, c)
	var hit *AuditReport
	for i := range reports {
		if !reports[i].Clean || reports[i].Backup >= 0 {
			if hit != nil {
				t.Fatalf("multiple divergences: %v and %v", *hit, reports[i])
			}
			hit = &reports[i]
		}
	}
	if hit == nil {
		t.Fatalf("corruption not detected: %v", reports)
	}
	// Localization must name the exact machine and object.
	if hit.Region != region || hit.Backup != victim || hit.Off != off {
		t.Fatalf("localization: got region %d backup m%d off %d, want region %d m%d off %d (%v)",
			hit.Region, hit.Backup, hit.Off, region, victim, off, *hit)
	}
	if !hit.Repaired {
		t.Fatalf("corruption not repaired: %v", *hit)
	}

	// The repaired backup's bytes must match the primary's again, and a
	// fresh audit must be clean.
	prim := c.Machine(int(c.Machine(0).mapping(region).Replicas[0])).replica(region)
	rep := c.Machine(victim).replica(region)
	pw, pd := objectAt(prim, off, 4)
	bw, bd := objectAt(rep, off, 4)
	if regionmem.MaskLock(pw) != regionmem.MaskLock(bw) || string(pd) != string(bd) {
		t.Fatalf("backup still divergent after repair: %x/%q vs %x/%q", pw, pd, bw, bd)
	}
	for _, r := range conclusiveAudit(t, c) {
		if !r.Clean {
			t.Fatalf("re-audit after repair not clean: %v", r)
		}
	}
	// Workload data must have survived the repair.
	if got := readObject(t, c, c.Machine(3), addrs[0], 4); got[1] != 9 {
		t.Fatalf("data damaged by repair: %v", got)
	}
}

// TestAuditLocalizesPastABlockOnlyTheBackupClassed: a backup whose class
// table names a block the primary's does not (as after a promotion that
// missed a claim's sync) still has its divergence localized to the right
// block and object, because its per-block digests follow the primary's
// list.
func TestAuditLocalizesPastABlockOnlyTheBackupClassed(t *testing.T) {
	c, region := testCluster(t, Options{})
	writeObject(t, c, c.Machine(0), []byte{1, 2, 3, 4})
	c.RunFor(50 * sim.Millisecond)
	replicas := c.RegionReplicas(region)
	pm, bm := c.Machine(replicas[0]), c.Machine(replicas[1])
	// The primary classes blocks 0, 2 and 3; the backup block 1 as well.
	pm.learnHeaders(pm.replica(region), []proto.BlockHeader{{Block: 2, Class: 64}, {Block: 3, Class: 64}})
	rep := bm.replica(region)
	bm.learnHeaders(rep, []proto.BlockHeader{{Block: 1, Class: 64}})
	off := 3 * c.Opts.Layout.BlockSize
	rep.mem.WriteAt([]byte{0x5A}, off+regionmem.HeaderSize)

	for _, r := range conclusiveAudit(t, c) {
		if r.Region != region {
			continue
		}
		if r.Backup != bm.ID || r.Block != 3 || r.Off != off {
			t.Fatalf("localization: %v, want backup m%d block 3 object @%d", r, bm.ID, off)
		}
		return
	}
	t.Fatalf("no report for region %d", region)
}

// TestStaleMappingSurfacesError pins the retry budget: a read of a region
// that no machine can resolve must surface ErrUnavailable after the capped
// exponential backoff burns the mapping-retry budget, not spin forever.
func TestStaleMappingSurfacesError(t *testing.T) {
	c, _ := testCluster(t, Options{})
	m := c.Machine(2)
	start := c.Now()
	var got error
	done := false
	tx := m.Begin(0)
	tx.Read(proto.Addr{Region: 4242, Off: 16}, 4, func(_ []byte, err error) {
		got, done = err, true
	})
	runUntil(t, c, 5*sim.Second, func() bool { return done })
	if !errors.Is(got, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", got)
	}
	// Budget: ~40 retries with 2 ms cap ≈ 73 ms of backoff plus fetch
	// round trips — an order of magnitude under the old 200-retry spin,
	// and strictly bounded.
	if elapsed := c.Now() - start; elapsed > 500*sim.Millisecond {
		t.Fatalf("gave up after %v, want bounded backoff", elapsed)
	}
}

// TestAuditSettlesUnderClosedLoopWriters pins regionQuiet against the
// audit fence's own retry stream: writers that retry the instant they are
// refused keep a LOCK record they hold nothing for in the primary's pend
// table most of the time. Those must not count as in flight, or the region
// never looks quiet twice in a row and the audit times out inconclusive.
func TestAuditSettlesUnderClosedLoopWriters(t *testing.T) {
	c, _ := testCluster(t, Options{})
	var addrs []proto.Addr
	for i := 0; i < 12; i++ {
		addrs = append(addrs, writeObject(t, c, c.Machine(0), []byte{byte(i), 0, 0, 0}))
	}
	stop := false
	var loop func(m *Machine, i int)
	loop = func(m *Machine, i int) {
		if stop {
			return
		}
		tx := m.Begin(i)
		addr := addrs[i]
		tx.Read(addr, 4, func(data []byte, err error) {
			if err != nil {
				loop(m, i)
				return
			}
			tx.Write(addr, []byte{data[0], data[1] + 1, 0, 0})
			tx.Commit(func(error) { loop(m, i) })
		})
	}
	for i := range addrs {
		loop(c.Machine(i%len(c.Machines)), i)
	}
	c.RunFor(2 * sim.Millisecond)

	start := c.Now()
	reports := collectAudit(t, c)
	if took := c.Now() - start; took > auditSettleDeadline {
		t.Fatalf("audit took %v under load, want it settled within %v", took, auditSettleDeadline)
	}
	stop = true
	for _, r := range reports {
		if !r.Conclusive || !r.Clean {
			t.Fatalf("audit under closed-loop writers: %v", r)
		}
	}
	if n := c.Counters.Get("audit_inconclusive"); n != 0 {
		t.Fatalf("audit_inconclusive = %d, want 0", n)
	}
	if c.Counters.Get("audit_fence_conflict") == 0 {
		t.Fatal("the fence refused no LOCK: the writers never loaded the audited region")
	}
}

// TestCommitBehindAHoleWaitsForIt: a ring write that times out is retried
// in place, for milliseconds, while the frames behind it land and the NIC
// acks them. The writer completes frames in psn order, so a transaction
// whose COMMIT-BACKUP lands behind such a hole is not reported until the
// hole fills and the backup can parse the record. Meanwhile the primary
// holds the transaction's lock, and every audit stays clean. (Chaos seed
// 126705 once convicted a backup 21 ms into a 27 ms hole: its coordinator
// had gone on to COMMIT-PRIMARY at the ack of a frame the backup could not
// parse yet.)
func TestCommitBehindAHoleWaitsForIt(t *testing.T) {
	c, region := testCluster(t, Options{})
	prim, coord := primaryAndOutsider(t, c, region)
	backup := c.Machine(int(prim.mapping(region).Replicas[1]))
	addr := writeObjectIn(t, c, coord, region, u64b(0))
	c.RunFor(20 * sim.Millisecond)

	// One frame from the coordinator to the backup is dropped on the wire;
	// its first retry, 1.5 ms later, is dropped too, the second lands 4 ms
	// after the first attempt.
	src, dst := fabric.MachineID(coord.ID), fabric.MachineID(backup.ID)
	start := c.Now()
	c.Net.CutLink(src, dst)
	var filled sim.Time // when the dropped frame completed
	w := coord.peer(backup.ID).logW
	hole := &proto.Record{Type: proto.RecTruncate, Tx: proto.TxID{Config: coord.config.ID, Machine: uint16(coord.ID)}}
	buf, ok := w.Begin(proto.RecordSize(hole), -1)
	if !ok {
		t.Fatal("ring full")
	}
	proto.AppendRecord(buf[:0], hole)
	w.Commit(func(err error) {
		if err != nil {
			t.Errorf("the dropped frame failed: %v", err)
		}
		filled = c.Now()
	})
	c.RunFor(10 * sim.Microsecond)
	c.Net.HealLink(src, dst)
	c.Eng.After(start+sim.Millisecond-c.Now(), func() { c.Net.CutLink(src, dst) })
	c.Eng.After(start+1600*sim.Microsecond-c.Now(), func() { c.Net.HealLink(src, dst) })

	// A transaction starts in the meantime: its COMMIT-BACKUP lands in the
	// backup's log behind the hole.
	var reported sim.Time
	tx := coord.Begin(0)
	tx.Read(addr, 8, func(data []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(addr, u64b(u64(data)+1))
		tx.Commit(func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			reported = c.Now()
		})
	})
	c.RunFor(start + 3500*sim.Microsecond - c.Now())
	waiting := 0
	for _, ct := range coord.inflight {
		if ct.phase == phaseCommitBackup {
			waiting++
		}
	}
	if reported != 0 || waiting != 1 || len(prim.replica(region).lockOwner) != 1 || len(backup.pend) != 0 {
		t.Fatalf("the hole was not built: reported at %v, %d transactions at COMMIT-BACKUP, %d locks at the primary, %d pending at the backup",
			reported, waiting, len(prim.replica(region).lockOwner), len(backup.pend))
	}
	// The audit waits for the primary's lock (or gives up, inconclusive).
	for _, r := range collectAudit(t, c) {
		if r.Region == region && r.Conclusive && !r.Clean {
			t.Errorf("audit with frames behind a hole at the backup: %v", r)
		}
	}
	runUntil(t, c, sim.Second, func() bool { return reported != 0 })
	if filled == 0 || filled > reported {
		t.Fatalf("the commit was reported at %v, the hole filled at %v", reported-start, filled-start)
	}
	c.RunFor(50 * sim.Millisecond)
	version := func(m *Machine) uint64 {
		return regionmem.Version(m.replica(region).mem.ReadHeader(int(addr.Off)))
	}
	if version(backup) != version(prim) {
		t.Errorf("backup at v%d, primary at v%d", version(backup), version(prim))
	}
	for _, r := range conclusiveAudit(t, c) {
		if !r.Clean {
			t.Errorf("audit after the hole was filled: %v", r)
		}
	}
	if n := c.Counters.Get("audit_divergence"); n != 0 {
		t.Errorf("%d divergences reported, none exists", n)
	}
}

// TestAuditOutlivesALostMessage: every audit request is a call bounded by
// its run's deadline and configuration, so a lost message of any of the
// six audit types ends the run at its deadline with what it knew then: no
// snapshot, no object offset, or no repair. The fence is down by then, no
// audit call is left open, and the next audits come back conclusive: the
// repair a lost message cut short is done, and then every replica agrees.
func TestAuditOutlivesALostMessage(t *testing.T) {
	for _, tc := range []struct {
		lost    interface{}
		corrupt bool // the drill-down and the repair need a divergence
		want    string
	}{
		{&proto.AuditSnap{}, false, "inconclusive (audit deadline)"},
		{&proto.AuditSnapReply{}, false, "inconclusive (audit deadline)"},
		{&proto.AuditObjectsReq{}, true, "DIVERGED backup m%[1]d block 0 (audit deadline)"},
		{&proto.AuditObjectsReply{}, true, "DIVERGED backup m%[1]d block 0 (audit deadline)"},
		{&proto.AuditRepair{}, true, "DIVERGED backup m%d block 0 object @%d (audit deadline)"},
		{&proto.AuditRepairDone{}, true, "DIVERGED backup m%d block 0 object @%d (audit deadline)"},
	} {
		c, region := testCluster(t, Options{})
		name := c.Machine(0).tp.reg.Lookup(tc.lost).Name
		t.Run(name, func(t *testing.T) {
			writeObject(t, c, c.Machine(0), []byte("first"))
			writeObject(t, c, c.Machine(1), []byte("second"))
			c.RunFor(50 * sim.Millisecond)
			want := tc.want
			if tc.corrupt {
				victim, off, ok := c.CorruptBackupObject(region, true)
				if !ok {
					t.Fatal("nothing to corrupt")
				}
				want = fmt.Sprintf(want, victim, off)
			}
			lost := false
			for _, m := range c.Machines {
				h := m.tp.reg.Lookup(tc.lost)
				fn := h.Fn
				h.Fn = func(src int, msg interface{}) {
					if !lost {
						lost = true
						return
					}
					fn(src, msg)
				}
			}

			prim := primaryOfRegion(c, region)
			start := c.Now()
			var got *AuditReport
			prim.StartRegionAudit(region, func(r AuditReport) { got = &r })
			runUntil(t, c, sim.Second, func() bool { return got != nil })
			if !lost {
				t.Fatalf("no %s was sent", name)
			}
			if at := c.Now() - start; at != auditDeadline {
				t.Errorf("the run ended after %v, want its deadline %v", at, auditDeadline)
			}
			if s := strings.TrimPrefix(got.String(), fmt.Sprintf("audit %#x region %d: ", got.ID, region)); s != want {
				t.Errorf("report %q, want %q", s, want)
			}
			if prim.replica(region).audit != nil {
				t.Error("the region is still fenced")
			}
			c.RunFor(sim.Millisecond)
			if len(prim.calls) != 0 {
				t.Errorf("calls left open: %v", prim.OpenCalls())
			}
			for _, r := range conclusiveAudit(t, c) {
				if !r.Clean && !r.Repaired {
					t.Fatalf("the next audit: %v", r)
				}
			}
			for _, r := range conclusiveAudit(t, c) {
				if !r.Clean {
					t.Fatalf("the audit after: %v", r)
				}
			}
		})
	}
}
