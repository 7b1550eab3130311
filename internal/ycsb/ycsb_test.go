package ycsb

import (
	"testing"

	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/sim"
)

func TestSetupAndLookups(t *testing.T) {
	c := core.New(core.Options{NumMachines: 5, Seed: 21})
	w, err := Setup(c, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every key must be retrievable via lock-free read.
	missing := 0
	fired := 0
	for id := uint64(0); id < 500; id += 17 {
		id := id
		w.Table.LockFreeGet(c.Machine(int(id)%5), 0, Key(id), func(val []byte, ok bool, err error) {
			fired++
			if err != nil || !ok {
				missing++
			}
		})
	}
	c.RunFor(100 * sim.Millisecond)
	if fired == 0 || missing > 0 {
		t.Fatalf("fired=%d missing=%d", fired, missing)
	}
}

func TestLookupWorkloadRuns(t *testing.T) {
	c := core.New(core.Options{NumMachines: 5, Seed: 22})
	w, err := Setup(c, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := loadgen.New(c, w.LookupOp())
	tput, med, p99 := g.RunPoint([]int{0, 1, 2, 3, 4}, 4, 2, 2*sim.Millisecond, 20*sim.Millisecond)
	if tput < 100000 {
		t.Fatalf("throughput %v ops/s too low", tput)
	}
	if med <= 0 || p99 < med {
		t.Fatalf("latencies: med=%v p99=%v", med, p99)
	}
	// Lock-free reads at low-ish load should be tens of µs at worst.
	if med > 100*sim.Microsecond {
		t.Fatalf("median %v too high for lock-free reads", med)
	}
	if g.Aborted() > g.Committed()/10 {
		t.Fatalf("aborts %d vs commits %d", g.Aborted(), g.Committed())
	}
}

// TestMixAllocationBudget: the benchmark's kv_lookup shape, scaled down — 9
// machines, 2 threads each, two clients per thread, 2 000 keys in 6 regions
// — running LookupOp over a warmed window, allocates nothing: the lookup's
// state comes from the table's pool, its answer's from the workload's, its
// key stays on the stack (kv copies it) and the neighbourhood lands in the
// pooled read's own buffer (make allocs lists any site that comes back). It
// cost 1.00, the key, while kv kept the caller's key, and 3.02 while each
// lookup also made a closure and its read a buffer for the caller.
func TestMixAllocationBudget(t *testing.T) {
	c := core.New(core.Options{NumMachines: 9, Threads: 2, Seed: 1})
	w, err := Setup(c, 2000, 6)
	if err != nil {
		t.Fatal(err)
	}
	g := loadgen.New(c, w.LookupOp())
	g.Start([]int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 2, 2)
	c.RunFor(5 * sim.Millisecond) // pools filled
	per, ops := g.AllocsPerOp(5 * sim.Millisecond)
	if ops < 1000 {
		t.Fatalf("only %d operations committed in the window", ops)
	}
	t.Logf("kv lookups: %.2f allocs per committed operation over %d committed", per, ops)
	// What is left is the generator's throughput timeline growing a few
	// times a window, not anything a lookup does.
	if per > 0.001 {
		t.Errorf("kv lookups: %.4f allocs per committed operation, want 0", per)
	}
}

// TestFreshKeyLookupAllocatesNothing: kv copies a key into its operation's
// own buffer, so a key Key builds inside the caller stays on its stack and a
// warm lock-free lookup, with the lease traffic of its stretch of virtual
// time, allocates nothing. It cost 3 while kv kept the caller's key and
// lease messages were made afresh.
func TestFreshKeyLookupAllocatesNothing(t *testing.T) {
	c := core.New(core.Options{NumMachines: 5, Seed: 21})
	w, err := Setup(c, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Machine(1)
	id, found := uint64(0), 0
	got := func(_ []byte, ok bool, err error) {
		if ok && err == nil {
			found++
		}
	}
	lookup := func() {
		id = (id + 17) % 500
		w.Table.LockFreeGet(m, 0, Key(id), got)
		c.RunFor(100 * sim.Microsecond)
	}
	for i := 0; i < 50; i++ {
		lookup() // warm the pools
	}
	per := testing.AllocsPerRun(100, lookup)
	if found != 151 {
		t.Fatalf("%d of 151 lookups found their key", found)
	}
	if per != 0 {
		t.Errorf("a lock-free lookup of a fresh key: %.2f allocs, want 0", per)
	}
}
