package core_test

import (
	"testing"

	"farm/internal/bank"
	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/proto"
	"farm/internal/sim"
)

// Allocation budgets for the two hot paths every transaction takes through
// core (ISSUE 14). The simulation is single-goroutine and seed-
// deterministic, so testing.AllocsPerRun counts are exact; each bound
// leaves about 10 % head-room, so a regression fails here rather than in a
// later benchmark run.

// TestFreshReadAllocationBudget: a first read of an object whose primary
// is local allocates the fetched header+payload, the caller's copy and the
// read-set entry; the read itself (pooled readOp, guarded thread item)
// allocates nothing.
func TestFreshReadAllocationBudget(t *testing.T) {
	c := core.New(core.Options{NumMachines: 5, Seed: 7})
	regions, err := c.CreateRegions(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Machine(c.Machine(0).PrimaryOf(regions[0]))
	var addr proto.Addr
	err = loadgen.RunSync(c, m, 0, func(tx *core.Tx, done func(error)) {
		tx.Alloc(64, make([]byte, 64), nil, func(a proto.Addr, err error) { addr = a; done(err) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.PrimaryOf(addr.Region) != m.ID {
		t.Fatal("object is not local to the reading machine")
	}
	var got int
	finished := false
	onRead := func(data []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got, finished = len(data), true
	}
	run := func(read bool) float64 {
		return testing.AllocsPerRun(200, func() {
			tx := m.Begin(0)
			if read {
				finished = false
				tx.Read(addr, 64, onRead)
				for !finished && c.Eng.Step() {
				}
			}
			tx.Abort()
		})
	}
	run(true) // warm the pools and counters
	base, withRead := run(false), run(true)
	if got != 64 {
		t.Fatalf("read %d bytes", got)
	}
	if n := withRead - base; n > 4 {
		t.Fatalf("fresh local Tx.Read: %v allocs (Begin+Abort alone: %v), want <= 4", n, base)
	}
}

// TestBankTransferAllocationBudget: one two-account transfer on a
// 9-machine, 3-way-replicated cluster — two reads, LOCK, COMMIT-BACKUP and
// COMMIT-PRIMARY records to every replica, their polling, application and
// truncation, plus whatever lease traffic falls in the window — end to end.
// It cost about 225 allocations before ISSUE 14 (whose budget was 150) and
// measures 99 here. (The benchmark's bank_lowload reads 73: with 18 clients
// most truncations piggyback on the next record, while this lone client's
// all go out as explicit TRUNCATE records.)
func TestBankTransferAllocationBudget(t *testing.T) {
	c := core.New(core.Options{NumMachines: 9, Seed: 1})
	w, err := bank.Setup(c, 512, 6, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(3)
	committed := 0
	done := func(ok bool) {
		if ok {
			committed++
		}
	}
	one := func() {
		w.Transfer(c.Machine(committed%9), 0, rng, done)
		c.RunFor(150 * sim.Microsecond)
	}
	for i := 0; i < 500; i++ { // steady state: pools filled, rings wrapped
		one()
	}
	before := committed
	const runs = 300
	n := testing.AllocsPerRun(runs, one)
	if committed-before < runs*9/10 {
		t.Fatalf("only %d of %d transfers committed", committed-before, runs)
	}
	t.Logf("bank transfer: %.1f allocs end to end", n)
	if n > 110 {
		t.Fatalf("bank transfer: %v allocs end to end, want <= 110", n)
	}
}
