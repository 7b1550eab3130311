package tpcc

import (
	"testing"

	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/sim"
)

// The allocation budgets of the five transactions, each on a warmed
// one-warehouse cluster whose coordinator is the warehouse's primary, per
// committed transaction: the state machine, its Tx, the chunks it carves
// from, the kv and B-tree operations it issues, their keys and rows, the
// pairs its Scans return and the nodes its splits build all come from pools
// or its own arrays, and so do the events the cluster runs meanwhile: each
// allocates nothing.

// txnFunc is one of the Workload's transaction entry points.
type txnFunc func(w *Workload, m *core.Machine, thread int, wh *warehouse, rng *sim.Rand, done func(bool))

// allocsPerCommit runs txn on a warmed cluster, then backlog more
// NewOrders, and returns txn's allocations per committed run and how many
// splits (transactional descents) the measured runs made.
func allocsPerCommit(t *testing.T, txn txnFunc, backlog int) (float64, uint64) {
	t.Helper()
	c, w := setup(t, 1)
	wh := w.whs[0]
	m := c.Machine(wh.home)
	rng := sim.NewRand(11)
	finished, committed := false, false
	done := func(ok bool) { finished, committed = true, ok }
	run := func(txn txnFunc) {
		finished = false
		txn(w, m, 0, wh, rng, done)
		for !finished && c.Eng.Step() {
		}
		if !committed {
			t.Fatalf("a transaction on an idle cluster did not commit (%d NewOrders)", w.NewOrders)
		}
	}
	for i := 0; i < 100; i++ {
		// Warm the pools, the B-tree caches and the indexes.
		run((*Workload).NewOrder)
		run(txn)
	}
	for i := 0; i < backlog; i++ {
		run((*Workload).NewOrder)
	}
	splits := w.DescentStats()[4]
	per := testing.AllocsPerRun(50, func() { run(txn) })
	return per, w.DescentStats()[4] - splits
}

// TestNewOrderAllocationBudget: a committed NewOrder — its header reads,
// order and new-order inserts, 5–15 order lines and the commit, plus the
// events the cluster runs meanwhile — allocates nothing, a NewOrder that
// splits a leaf included. With a chainOp and a treeOp per operation and a
// closure, key and row per step it cost 153, 34 while participants copied
// every log record out of the ring and one-sided reads made their own
// buffers, 23 while every transaction made its own Tx and slab chunks, and
// 3 while a split made its node, a Tx kept its own chunks and the lease
// manager's messages and the log's consumption reports were made afresh.
func TestNewOrderAllocationBudget(t *testing.T) {
	per, splits := allocsPerCommit(t, (*Workload).NewOrder, 0)
	t.Logf("NewOrder: %.1f allocs per committed transaction, %d splits", per, splits)
	if splits == 0 {
		t.Fatal("no measured NewOrder split a leaf")
	}
	if per > 0 {
		t.Errorf("NewOrder: %.1f allocs per committed transaction, want 0", per)
	}
}

// TestPaymentAllocationBudget: a committed Payment — three row updates, a
// history insert and the commit — allocates nothing; it cost 16 as a
// closure chain on fresh keys, each run on a Tx of its own.
func TestPaymentAllocationBudget(t *testing.T) {
	per, _ := allocsPerCommit(t, (*Workload).Payment, 0)
	t.Logf("Payment: %.1f allocs per committed transaction", per)
	if per > 0 {
		t.Errorf("Payment: %.1f allocs per committed transaction, want 0", per)
	}
}

// TestOrderStatusAllocationBudget: a committed OrderStatus allocates
// nothing; it cost the slice its order-line Scan returned the pairs in
// before the state machine kept one, and 12 as a closure chain.
func TestOrderStatusAllocationBudget(t *testing.T) {
	per, _ := allocsPerCommit(t, (*Workload).OrderStatus, 0)
	t.Logf("OrderStatus: %.1f allocs per committed transaction", per)
	if per > 0 {
		t.Errorf("OrderStatus: %.1f allocs per committed transaction, want 0", per)
	}
}

// TestDeliveryAllocationBudget: a committed Delivery with an order to
// deliver in every district — ten transactions of two Scans each —
// allocates nothing; it cost the twenty slices the Scans returned their
// pairs in and about three more before the state machine kept one, and 175
// as a closure chain.
func TestDeliveryAllocationBudget(t *testing.T) {
	per, _ := allocsPerCommit(t, (*Workload).Delivery, 800)
	t.Logf("Delivery: %.1f allocs per committed transaction", per)
	if per > 0 {
		t.Errorf("Delivery: %.1f allocs per committed transaction, want 0", per)
	}
}

// TestStockLevelAllocationBudget: a committed StockLevel allocates nothing;
// it cost the slice its order-line Scan returned the pairs in before the
// state machine kept one, and 137 as a closure chain (a key per stock read
// among them).
func TestStockLevelAllocationBudget(t *testing.T) {
	per, _ := allocsPerCommit(t, (*Workload).StockLevel, 0)
	t.Logf("StockLevel: %.1f allocs per committed transaction", per)
	if per > 0 {
		t.Errorf("StockLevel: %.1f allocs per committed transaction, want 0", per)
	}
}

// TestMixAllocationBudget: the benchmark's tpcc_mix shape, scaled down — 9
// machines, 2 threads each, one client and one warehouse per thread —
// running Mix over a warmed window, costs 0.25 allocations per committed
// operation: the block-header sync and the region blocks new objects are
// first written into, mostly (make allocs lists the sites). It cost 0.42
// while a validation op was held from its scheduling to its verdict, so its
// pool grew with the largest read set validated at once, and 3.6 while
// a Tx shed chunks after smaller transactions and took them up again,
// Delivery's Scans returned new pair slices, the B-tree caches copied every
// node they fetched, splits made their nodes and lease messages and log
// consumption reports were made afresh.
func TestMixAllocationBudget(t *testing.T) {
	c := core.New(core.Options{NumMachines: 9, Threads: 2, Seed: 1})
	w, err := Setup(c, DefaultConfig(18))
	if err != nil {
		t.Fatal(err)
	}
	g := loadgen.New(c, w.Mix())
	g.Start([]int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 2, 1)
	c.RunFor(5 * sim.Millisecond) // pools filled, rings wrapped
	per, ops := g.AllocsPerOp(10 * sim.Millisecond)
	if ops < 1000 {
		t.Fatalf("only %d operations committed in the window", ops)
	}
	t.Logf("tpcc mix: %.2f allocs per committed operation over %d committed", per, ops)
	const budget = 0.25 * 1.1
	if per > budget {
		t.Errorf("tpcc mix: %.2f allocs per committed operation, want <= %.2f", per, budget)
	}
}
