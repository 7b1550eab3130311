package tpcc

import (
	"encoding/binary"
	"testing"

	"farm/internal/core"
	"farm/internal/history"
	"farm/internal/kv"
	"farm/internal/loadgen"
	"farm/internal/sim"
)

func setup(t *testing.T, warehouses int) (*core.Cluster, *Workload) {
	t.Helper()
	c := core.New(core.Options{NumMachines: 5, Seed: 41})
	cfg := DefaultConfig(warehouses)
	cfg.CustomersPerDist = 12
	cfg.Items = 240
	w, err := Setup(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, w
}

func TestSetupPartitionsByWarehouse(t *testing.T) {
	c, w := setup(t, 4)
	_ = c
	homes := w.HomeMachines()
	total := 0
	for _, whs := range homes {
		total += len(whs)
	}
	if total != 4 {
		t.Fatalf("warehouses homed: %d", total)
	}
}

func runOp(t *testing.T, c *core.Cluster, fn func(done func(bool))) bool {
	t.Helper()
	completed, ok := false, false
	fn(func(r bool) { completed, ok = true, r })
	deadline := c.Eng.Now() + 5*sim.Second
	for !completed && c.Eng.Now() < deadline {
		if !c.Eng.Step() {
			break
		}
	}
	if !completed {
		t.Fatal("tpcc op stalled")
	}
	return ok
}

func TestNewOrderCommitsAndAdvancesDistrict(t *testing.T) {
	c, w := setup(t, 2)
	wh := w.whs[0]
	m := c.Machine(wh.home)
	rng := sim.NewRand(5)
	for i := 0; i < 5; i++ {
		if !runOp(t, c, func(d func(bool)) { w.NewOrder(m, 0, wh, rng, d) }) {
			t.Fatalf("new order %d failed", i)
		}
	}
	// District 1..10: total next_o_id advances must equal 5.
	var advanced int
	for d := 1; d <= w.Cfg.Districts; d++ {
		var next uint32
		err := loadgen.RunSync(c, m, 0, func(tx *core.Tx, done func(error)) {
			wh.dTbl.Get(tx, kv.U64Key(uint64(d)), func(drow []byte, ok bool, err error) {
				if ok {
					next = binary.LittleEndian.Uint32(drow)
				}
				done(err)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		advanced += int(next) - 1
	}
	if advanced != 5 {
		t.Fatalf("next_o_id advanced %d, want 5", advanced)
	}
	if w.NewOrders != 5 {
		t.Fatalf("NewOrders counter = %d", w.NewOrders)
	}
}

func TestPaymentMovesMoney(t *testing.T) {
	c, w := setup(t, 2)
	wh := w.whs[1]
	m := c.Machine(wh.home)
	rng := sim.NewRand(6)
	for i := 0; i < 5; i++ {
		if !runOp(t, c, func(d func(bool)) { w.Payment(m, 0, wh, rng, d) }) {
			t.Fatalf("payment %d failed", i)
		}
	}
	// Warehouse ytd must be positive.
	var ytd uint64
	err := loadgen.RunSync(c, m, 0, func(tx *core.Tx, done func(error)) {
		wh.wTbl.Get(tx, kv.U64Key(0), func(wrow []byte, ok bool, err error) {
			if ok {
				ytd = binary.LittleEndian.Uint64(wrow)
			}
			done(err)
		})
	})
	if err != nil || ytd == 0 {
		t.Fatalf("warehouse ytd = %d err=%v", ytd, err)
	}
}

func TestOrderLifecycle(t *testing.T) {
	// New orders → order status sees them → delivery consumes new-order
	// entries → stock level runs.
	c, w := setup(t, 2)
	wh := w.whs[0]
	m := c.Machine(wh.home)
	rng := sim.NewRand(7)
	for i := 0; i < 12; i++ {
		if !runOp(t, c, func(d func(bool)) { w.NewOrder(m, 0, wh, rng, d) }) {
			t.Fatalf("new order %d failed", i)
		}
	}
	if !runOp(t, c, func(d func(bool)) { w.OrderStatus(m, 1, wh, rng, d) }) {
		t.Fatal("order status failed")
	}
	if !runOp(t, c, func(d func(bool)) { w.Delivery(m, 1, wh, rng, d) }) {
		t.Fatal("delivery failed")
	}
	if !runOp(t, c, func(d func(bool)) { w.StockLevel(m, 2, wh, rng, d) }) {
		t.Fatal("stock level failed")
	}
}

func TestMixThroughput(t *testing.T) {
	c, w := setup(t, 8)
	g := loadgen.New(c, w.Mix())
	w.MeasureFrom = c.Now() + 5*sim.Millisecond
	// TPC-C abort rates are governed by drivers-per-warehouse (the paper
	// runs 21600 warehouses for 2700 threads); keep the ratio comparable.
	tput, _, _ := g.RunPoint([]int{0, 1, 2, 3, 4}, 2, 1, 5*sim.Millisecond, 40*sim.Millisecond)
	if tput < 1000 {
		t.Fatalf("TPC-C mix throughput %v/s too low", tput)
	}
	if w.NewOrders == 0 {
		t.Fatal("no new orders committed")
	}
	noTput := w.NewOrderTimeline.WindowAverage(w.MeasureFrom, c.Now()) * 1000
	med, p99 := w.NewOrderLat.Median(), w.NewOrderLat.P99()
	if med <= 0 || p99 < med {
		t.Fatalf("new-order latency: %v %v", med, p99)
	}
	abortRate := float64(g.Aborted()) / float64(g.Committed()+g.Aborted())
	t.Logf("TPC-C: total %.0f tx/s, new-order %.0f/s, med=%v p99=%v, aborts=%.3f, remote=%d",
		tput, noTput, med, p99, abortRate, w.RemoteAccesses)
	if abortRate > 0.35 {
		t.Fatalf("abort rate %.2f too high", abortRate)
	}
}

// TestMixIsDeterministic: two clusters built from one seed run the mix
// through the identical event sequence. StockLevel once issued its stock
// reads in Go map-iteration order, which made every tpcc run interleave
// differently with NewOrder.
func TestMixIsDeterministic(t *testing.T) {
	run := func() (events, committed, aborted uint64) {
		c, w := setup(t, 8)
		g := loadgen.New(c, w.Mix())
		g.RunPoint([]int{0, 1, 2, 3, 4}, 2, 1, sim.Millisecond, 10*sim.Millisecond)
		return c.Eng.Executed(), g.Committed(), g.Aborted()
	}
	e1, c1, a1 := run()
	e2, c2, a2 := run()
	if e1 != e2 || c1 != c2 || a1 != a2 {
		t.Fatalf("same seed, different runs: events %d vs %d, committed %d vs %d, aborted %d vs %d",
			e1, e2, c1, c2, a1, a2)
	}
	if c1 == 0 {
		t.Fatal("nothing committed")
	}
}

func TestTPCCContinuesAcrossFailure(t *testing.T) {
	c := core.New(core.Options{NumMachines: 5, Seed: 43, LeaseDuration: 5 * sim.Millisecond})
	cfg := DefaultConfig(8)
	cfg.CustomersPerDist = 12
	cfg.Items = 120
	w, err := Setup(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := loadgen.New(c, w.Mix())
	g.Start([]int{0, 1, 2, 3, 4}, 2, 1)
	c.RunFor(20 * sim.Millisecond)
	before := w.NewOrders

	c.Kill(4)
	c.RunFor(400 * sim.Millisecond)
	g.Stop()
	c.RunFor(10 * sim.Millisecond)

	if w.NewOrders <= before {
		t.Fatalf("no new orders after the failure: %d -> %d", before, w.NewOrders)
	}
	// Consistency audit: district next_o_id-1 must equal the number of
	// orders retrievable from the orders index for that district.
	wh := w.whs[0]
	reader := wh.home
	if reader == 4 {
		reader = 0
	}
	m := c.Machine(reader)
	for d := 1; d <= 3; d++ {
		var next uint32
		err := loadgen.RunSync(c, m, 0, func(tx *core.Tx, done func(error)) {
			wh.dTbl.Get(tx, kv.U64Key(uint64(d)), func(drow []byte, ok bool, err error) {
				if ok {
					next = binary.LittleEndian.Uint32(drow)
				}
				done(err)
			})
		})
		if err != nil {
			t.Fatalf("district read: %v", err)
		}
		if next == 0 {
			t.Fatalf("district %d row lost", d)
		}
		// Every committed order must be present in the index.
		for o := 1; o < int(next); o++ {
			o := o
			err := loadgen.RunSync(c, m, 1, func(tx *core.Tx, done func(error)) {
				wh.orders[d].Get(tx, orderKey(d, o), func(_ []byte, ok bool, err error) {
					if err == nil && !ok {
						t.Errorf("district %d order %d missing from index", d, o)
					}
					done(err)
				})
			})
			if err != nil {
				t.Fatalf("order read: %v", err)
			}
		}
	}
}

// TestConcurrentMixIsConsistentAndSerializable judges what the throughput
// tests cannot see: nine machines run the mix against range indexes whose
// nodes hold four keys, so that leaves, internal nodes and roots split under
// concurrent readers and writers all the time; afterwards the TPC-C
// consistency conditions hold, every committed new-order is in the database,
// and the recorded history is strictly serializable.
func TestConcurrentMixIsConsistentAndSerializable(t *testing.T) {
	defer func(order int) { treeOrder = order }(treeOrder)
	treeOrder = 4

	c := core.New(core.Options{NumMachines: 9, Seed: 47, History: true})
	cfg := DefaultConfig(9)
	cfg.CustomersPerDist = 12
	cfg.Items = 240
	w, err := Setup(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := loadgen.New(c, w.Mix())
	g.RunPoint([]int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 2, 1, sim.Millisecond, 20*sim.Millisecond)
	c.RunFor(5 * sim.Millisecond) // what was in flight finishes

	orders, err := w.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if orders != w.NewOrders || orders < 1000 {
		t.Fatalf("the districts hold %d orders, %d new-orders committed (want 1000 or more)", orders, w.NewOrders)
	}
	// Order lines, the fastest growing index, get some ten keys per order:
	// ninety trees of that many keys, four to a node, are four levels deep.
	if splits := w.DescentStats()[4]; splits < 3*orders {
		t.Fatalf("%d leaf splits for %d orders: the indexes did not grow as intended", splits, orders)
	}
	rep := history.Check(c.Hist.Export())
	t.Logf("%d orders, %d committed transactions judged, %d aborted", orders, rep.Stats.Committed, rep.Stats.Aborted)
	if !rep.Ok() {
		t.Fatalf("history not strictly serializable:\n%s", rep)
	}
}

// TestFailedNewOrderReturnsItsSlots: a NewOrder whose stock read fails after
// its order insert split a leaf aborts its transaction, so the slot the split
// reserved goes back to the primary's free list and the history records the
// abandonment. Dropped without Abort, the transaction would leave the slot
// reserved until allocator recovery and the history event open.
func TestFailedNewOrderReturnsItsSlots(t *testing.T) {
	defer func(order int) { treeOrder = order }(treeOrder)
	treeOrder = 4
	c := core.New(core.Options{NumMachines: 5, Seed: 41, History: true})
	cfg := DefaultConfig(1)
	cfg.CustomersPerDist = 12
	cfg.Items = 240
	w, err := Setup(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wh := w.whs[0]
	m := c.Machine(wh.home)
	rng := sim.NewRand(5)
	for i := 0; i < 40; i++ {
		if !runOp(t, c, func(d func(bool)) { w.NewOrder(m, 0, wh, rng, d) }) {
			t.Fatalf("new order %d failed", i)
		}
	}
	// Without stock rows every NewOrder fails at its first line's stock
	// read, after its order and new-order inserts.
	for item := 0; item < cfg.Items; item++ {
		err := loadgen.RunSync(c, m, 0, func(tx *core.Tx, done func(error)) {
			wh.sTbl.Delete(tx, kv.U64Key(uint64(item)), func(_ bool, err error) { done(err) })
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	region, size := wh.regions[0], wh.orders[1].NodeBytes()
	free, splits := m.FreeSlots(region, size), w.DescentStats()[4]
	if free < 0 {
		t.Fatalf("machine %d is not the primary of the order indexes' region", m.ID)
	}
	events := c.Hist.Len()
	for i := 0; i < 40; i++ {
		if runOp(t, c, func(d func(bool)) { w.NewOrder(m, 0, wh, rng, d) }) {
			t.Fatalf("new order %d committed without stock rows", i)
		}
	}
	if w.DescentStats()[4] == splits {
		t.Fatal("no failed NewOrder split a leaf: nothing tested")
	}
	if got := m.FreeSlots(region, size); got != free {
		t.Fatalf("%d free node slots after the failed NewOrders, %d before", got, free)
	}
	for _, ev := range c.Hist.Export().Events[events:] {
		if ev.Outcome != history.UserAborted {
			t.Fatalf("failed NewOrder recorded as %v, want %v", ev.Outcome, history.UserAborted)
		}
	}
}

// TestNewOrdersOutgrowTheirFirstRegion: the range indexes live in a
// warehouse's first region, and a split allocates its new node next to the
// node it splits; once that region is full the node goes to the warehouse's
// next region. While a hinted allocation tried the hint's region alone,
// NewOrder 1 112 of this run failed at its order-line Put, and so did every
// later one.
func TestNewOrdersOutgrowTheirFirstRegion(t *testing.T) {
	c, w := setup(t, 1)
	wh := w.whs[0]
	m := c.Machine(wh.home)
	rng := sim.NewRand(11)
	size := wh.orders[1].NodeBytes()
	for i := 0; i < 1500; i++ {
		if !runOp(t, c, func(d func(bool)) { w.NewOrder(m, 0, wh, rng, d) }) {
			t.Fatalf("NewOrder %d failed, %d free node slots left in the first region", i, m.FreeSlots(wh.regions[0], size))
		}
	}
	if n, err := w.CheckConsistency(); err != nil || n != 1500 {
		t.Fatalf("consistency: %d orders, %v", n, err)
	}
}
