package core_test

import (
	"testing"

	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/sim"
	"farm/internal/tpcc"
)

// TestCoPartitionedLoadSpreadsOverWorkers pins the balance that sharding
// log processing by coordinator thread buys. TPC-C is co-partitioned: nine
// tenths of every machine's LOCK and COMMIT-PRIMARY records land in its own
// ring, and dispatching a ring to one worker left that worker saturated
// with most of the others half idle (busiest / least busy 2.1). Measured
// here: 1.05.
func TestCoPartitionedLoadSpreadsOverWorkers(t *testing.T) {
	c := core.New(core.Options{NumMachines: 9, Threads: 8, Seed: 1})
	// One warehouse per client, as in the benchmark's tpcc_mix; smaller
	// tables only shorten the set-up.
	cfg := tpcc.DefaultConfig(72)
	cfg.CustomersPerDist, cfg.Items = 10, 50
	w, err := tpcc.Setup(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(c.Machines))
	for i := range all {
		all[i] = i
	}
	g := loadgen.New(c, w.Mix())
	g.Start(all, 8, 1)
	c.RunFor(sim.Millisecond / 2)
	before := make([][]sim.Time, len(c.Machines))
	for i, m := range c.Machines {
		before[i] = m.WorkerBusy()
	}
	c.RunFor(4 * sim.Millisecond)
	g.Stop()
	for i, m := range c.Machines {
		lo, hi := sim.Time(1<<62), sim.Time(0)
		for th, busy := range m.WorkerBusy() {
			busy -= before[i][th]
			lo, hi = min(lo, busy), max(hi, busy)
		}
		if float64(hi) > 1.25*float64(lo) {
			t.Errorf("m%d: busiest worker %v, least busy %v over 4 ms: ratio %.2f, want <= 1.25", i, hi, lo, float64(hi)/float64(lo))
		} else {
			t.Logf("m%d: worker busy time %v..%v (%.2f)", i, lo, hi, float64(hi)/float64(lo))
		}
	}
}
