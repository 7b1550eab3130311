package tpcc

import (
	"testing"

	"farm/internal/sim"
)

// TestNewOrderAllocationBudget: on a warmed one-warehouse cluster whose
// coordinator is the warehouse's primary, a committed NewOrder — its header
// reads, order and new-order inserts, 5–15 order lines and the commit, plus
// the events the cluster runs meanwhile — costs 28 allocations. Its state
// machine, the kv and B-tree operations it issues and their keys and rows all
// come from pools or its own arrays; with a chainOp and a treeOp per
// operation and a closure, key and row per step it cost 153, and 34 while
// participants copied every log record out of the ring and one-sided reads
// made their own buffers.
func TestNewOrderAllocationBudget(t *testing.T) {
	c, w := setup(t, 1)
	wh := w.whs[0]
	m := c.Machine(wh.home)
	rng := sim.NewRand(11)
	finished, committed := false, false
	done := func(ok bool) { finished, committed = true, ok }
	one := func() {
		finished = false
		w.NewOrder(m, 0, wh, rng, done)
		for !finished && c.Eng.Step() {
		}
		if !committed {
			t.Fatal("a NewOrder on an idle cluster did not commit")
		}
	}
	for i := 0; i < 200; i++ {
		one() // warm the pools, the B-tree caches and the indexes
	}
	per := testing.AllocsPerRun(200, one)
	t.Logf("NewOrder: %.1f allocs per committed transaction", per)
	const budget = 28 * 1.1
	if per > budget {
		t.Errorf("NewOrder: %.1f allocs per committed transaction, want <= %.0f", per, budget)
	}
}
