package bank

import (
	"testing"

	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/sim"
)

// TestBankMixAllocationBudget: the benchmark's bank_lowload shape — 9
// machines, 2 threads each, one client per thread, 4 096 accounts in 6
// regions — running Mix, costs 0.08 heap allocations per committed
// operation over a warmed window, at scattered sites (make allocs lists
// them). It cost 10.74 while every commit made its coordinator state, every
// LOCK record at a remote primary a LOCK-REPLY and every transfer and audit
// its closures, 2.31 while every transaction made its own Tx and slab chunk,
// and 0.28 while a Tx kept its own chunks and lease messages were made
// afresh; with any of them per-operation again the count rises by about
// one or more. (The benchmark reads about one more: its per-operation
// latency wrapper.)
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

	per, ops := g.AllocsPerOp(10 * sim.Millisecond)
	if ops < 1000 {
		t.Fatalf("only %d operations committed in the window", ops)
	}
	t.Logf("bank mix: %.2f allocs per committed operation over %d committed", per, ops)
	const budget = 0.08 * 1.1
	if per > budget {
		t.Fatalf("bank mix: %.2f allocs per committed operation, want <= %.2f", per, budget)
	}
}
