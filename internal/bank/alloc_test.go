package bank

import (
	"runtime"
	"testing"

	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/sim"
)

// TestBankMixAllocationBudget: the benchmark's bank_lowload shape — 9
// machines, 2 threads each, one client per thread, 4 096 accounts in 6
// regions — running Mix, costs 2.31 heap allocations per committed
// operation over a warmed window: the Tx, the slab it carves reads and
// writes from, and scattered sites. It cost 10.74 while every commit made
// its coordinator state, every LOCK record at a remote primary a LOCK-REPLY
// and every transfer and audit its closures; with any of them per-operation
// again the count rises by about one or more. (The benchmark reads about
// one more: its per-operation latency wrapper.)
func TestBankMixAllocationBudget(t *testing.T) {
	c := core.New(core.Options{NumMachines: 9, Threads: 2, Seed: 1})
	w, err := Setup(c, 4096, 6, 1000)
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]int, 9)
	for i := range machines {
		machines[i] = i
	}
	g := loadgen.New(c, w.Mix())
	g.Start(machines, 2, 1)
	c.RunFor(5 * sim.Millisecond) // pools filled, rings wrapped

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops := g.Committed()
	c.RunFor(10 * sim.Millisecond)
	runtime.ReadMemStats(&m1)
	ops = g.Committed() - ops
	if ops < 1000 {
		t.Fatalf("only %d operations committed in the window", ops)
	}
	per := float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	t.Logf("bank mix: %.2f allocs per committed operation over %d", per, ops)
	const budget = 2.31 * 1.1
	if per > budget {
		t.Fatalf("bank mix: %.2f allocs per committed operation, want <= %.2f", per, budget)
	}
}
