package core_test

import (
	"testing"

	"farm/internal/bank"
	"farm/internal/core"
	"farm/internal/fabric"
	"farm/internal/loadgen"
	"farm/internal/nvram"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
	"farm/internal/tatp"
	"farm/internal/tpcc"
)

// TestRegionMemoryFollowsWrites: only writes materialize region blocks.
// After a 2-warehouse TPC-C set-up and a short mix, and after a TATP run
// through a kill, the re-replication of the dead machine's regions and a
// clean audit, every materialized block of every replica holds a non-zero
// byte (a block materialized by a read, a header learn, an audit scan or an
// all-zero recovered block would hold none), audits, which only read,
// materialize nothing, and a block claimed and classed for an aborted
// allocation stays unmaterialized at every replica through the kill and the
// re-replication. The shared zero block is still all zero.
func TestRegionMemoryFollowsWrites(t *testing.T) {
	c := core.New(core.Options{NumMachines: 5, Seed: 41})
	cfg := tpcc.DefaultConfig(2)
	cfg.CustomersPerDist = 12
	cfg.Items = 240
	w, err := tpcc.Setup(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	onlyWritten(t, c, "after TPC-C set-up")
	g := loadgen.New(c, w.Mix())
	g.Start([]int{0, 1, 2, 3, 4}, 2, 1)
	c.RunFor(10 * sim.Millisecond)
	g.Stop()
	c.RunFor(5 * sim.Millisecond)
	if g.Committed() == 0 {
		t.Fatal("no TPC-C operation committed")
	}
	onlyWritten(t, c, "after the TPC-C mix")
	auditMaterializesNothing(t, c)

	c = core.New(core.Options{NumMachines: 5, Seed: 59, LeaseDuration: 5 * sim.Millisecond})
	tw, err := tatp.Setup(c, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A block no commit filled is classed at its primary alone, so claim it
	// in a region m3 only backs: a backup promoted in m3's place could
	// claim the block afresh.
	backed := -1
	for _, r := range c.Machine(3).HostedRegions() {
		if c.Machine(0).PrimaryOf(r) != 3 {
			backed = int(r)
			break
		}
	}
	if backed < 0 {
		t.Fatal("m3 backs no region")
	}
	claimed := claimUnwritten(t, c, uint32(backed))
	g = loadgen.New(c, tw.Mix())
	g.Start([]int{0, 1, 2, 4}, 2, 1)
	c.RunFor(10 * sim.Millisecond)
	c.Kill(3)
	c.RunFor(300 * sim.Millisecond)
	g.Stop()
	c.RunFor(20 * sim.Millisecond)
	if c.Counters.Get("regions_rereplicated") == 0 {
		t.Fatal("no region was re-replicated after the kill")
	}
	onlyWritten(t, c, "after the TATP kill and re-replication")
	auditMaterializesNothing(t, c)
	block := int(claimed.Off) / c.Opts.Layout.BlockSize
	for _, id := range c.RegionReplicas(claimed.Region) {
		if data(c, id)[claimed.Region].IsMaterialized(block) {
			t.Fatalf("m%d materialized block %d of region %d, claimed and classed but never written", id, block, claimed.Region)
		}
	}

	zero := regionmem.NewRegion(c.Opts.Layout).Block(0)
	for i, x := range zero {
		if x != 0 {
			t.Fatalf("the shared zero block holds %#x at %d", x, i)
		}
	}
}

// TestRingMemoryFollowsTheWindow: a log ring holds host memory only across
// its live window. Every millisecond of a bank mix, every 10 ms of a TATP
// run through a kill and the re-replication of the dead machine's regions,
// and after each, every live machine's rings hold no more pages than their
// windows span plus one each, and its spares no more than four per page
// held or one per ring; once the cluster has been quiet for a while, the
// rings hold no page and the spares one per ring at most; and a power cycle
// gives up every page the rings hold.
func TestRingMemoryFollowsTheWindow(t *testing.T) {
	c := core.New(core.Options{NumMachines: 5, Seed: 43})
	bw, err := bank.Setup(c, 512, 6, 1000)
	if err != nil {
		t.Fatal(err)
	}
	g := loadgen.New(c, bw.Mix())
	g.Start([]int{0, 1, 2, 3, 4}, 2, 1)
	for range 10 {
		c.RunFor(sim.Millisecond)
		ringsFollowWindows(t, c, false, "during the bank mix")
	}
	g.Stop()
	c.RunFor(sim.Millisecond)
	if g.Committed() == 0 {
		t.Fatal("no bank operation committed")
	}
	ringsFollowWindows(t, c, false, "after the bank mix")
	c.RunFor(100 * sim.Millisecond)
	ringsFollowWindows(t, c, true, "after the quiesce")
	c.PowerFailure()
	c.RestorePower()
	for _, id := range c.AliveMachines() {
		if held, _, _ := c.Machine(id).RingPages(); held != 0 {
			t.Fatalf("m%d's rings hold %d pages after the power cycle", id, held)
		}
	}

	c = core.New(core.Options{NumMachines: 5, Seed: 59, LeaseDuration: 5 * sim.Millisecond})
	tw, err := tatp.Setup(c, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	g = loadgen.New(c, tw.Mix())
	g.Start([]int{0, 1, 2, 4}, 2, 1)
	c.RunFor(10 * sim.Millisecond)
	c.Kill(3)
	for range 30 {
		c.RunFor(10 * sim.Millisecond)
		ringsFollowWindows(t, c, false, "during the TATP mix")
	}
	g.Stop()
	c.RunFor(sim.Millisecond)
	if c.Counters.Get("regions_rereplicated") == 0 {
		t.Fatal("no region was re-replicated after the kill")
	}
	ringsFollowWindows(t, c, false, "after the TATP kill and re-replication")
	c.RunFor(100 * sim.Millisecond)
	ringsFollowWindows(t, c, true, "after the quiesce")
}

// ringsFollowWindows fails unless the log rings of every live machine hold
// at most the pages their windows span plus one each, and its spares at
// most four per page the rings hold or one per ring — or, on a quiet
// cluster, unless the rings hold no page and the spares one per ring at
// most.
func ringsFollowWindows(t *testing.T, c *core.Cluster, quiet bool, when string) {
	t.Helper()
	rings := len(c.Machines)
	for _, id := range c.AliveMachines() {
		held, spanned, spares := c.Machine(id).RingPages()
		if quiet && (held != 0 || spares > rings) || held > spanned+rings || spares > max(rings, 4*held) {
			t.Fatalf("%s: m%d's rings hold %d pages and %d spares, their windows span %d", when, id, held, spares, spanned)
		}
	}
}

// claimUnwritten claims a fresh block of region, in a size class nothing
// else uses, for an object whose transaction aborts: the block is classed
// at the primary, a backup learns its header only from an audit or data
// recovery, and it holds no write.
// It returns the object's address.
func claimUnwritten(t *testing.T, c *core.Cluster, region uint32) proto.Addr {
	t.Helper()
	const size = 3000
	tx := c.Machine(c.Machine(0).PrimaryOf(region)).Begin(0)
	var addr proto.Addr
	var err error
	tx.Alloc(size, make([]byte, size), &proto.Addr{Region: region}, func(a proto.Addr, e error) { addr, err = a, e })
	c.RunFor(sim.Millisecond)
	tx.Abort()
	c.RunFor(sim.Millisecond)
	if err != nil || addr.Region != region {
		t.Fatalf("allocation in region %d: %v at %v", region, err, addr)
	}
	return addr
}

// data returns machine id's data regions by id.
func data(c *core.Cluster, id int) map[uint32]*regionmem.Region {
	out := map[uint32]*regionmem.Region{}
	for _, r := range c.Machine(id).HostedRegions() {
		out[r] = c.Net.NIC(fabric.MachineID(id)).Mem().Data(nvram.RegionID(r))
	}
	return out
}

// onlyWritten fails unless every materialized block of every live replica
// holds a non-zero byte.
func onlyWritten(t *testing.T, c *core.Cluster, when string) {
	t.Helper()
	for _, id := range c.AliveMachines() {
		for r, reg := range data(c, id) {
			for b := range reg.Size() / reg.BlockSize() {
				if !reg.IsMaterialized(b) {
					continue
				}
				written := false
				for _, x := range reg.Block(b) {
					written = written || x != 0
				}
				if !written {
					t.Fatalf("%s: m%d region %d block %d is materialized but all zero", when, id, r, b)
				}
			}
		}
	}
}

// auditMaterializesNothing audits every region of a quiet cluster, expects
// every report clean, and fails if a replica's materialized block count
// moved.
func auditMaterializesNothing(t *testing.T, c *core.Cluster) {
	t.Helper()
	count := func() map[[2]uint32]int {
		out := map[[2]uint32]int{}
		for _, id := range c.AliveMachines() {
			for r, reg := range data(c, id) {
				out[[2]uint32{uint32(id), r}] = reg.Materialized()
			}
		}
		return out
	}
	before := count()
	var reports []core.AuditReport
	c.StartAudit(func(r []core.AuditReport) { reports = r })
	c.RunFor(100 * sim.Millisecond)
	if len(reports) == 0 {
		t.Fatal("the audit did not finish")
	}
	for _, r := range reports {
		if !r.Conclusive || !r.Clean {
			t.Fatalf("audit of region %d: %s", r.Region, r.String())
		}
	}
	for k, n := range count() {
		if before[k] != n {
			t.Fatalf("the audit materialized blocks of m%d region %d: %d → %d", k[0], k[1], before[k], n)
		}
	}
}
