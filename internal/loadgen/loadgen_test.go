package loadgen

import (
	"testing"

	"farm/internal/core"
	"farm/internal/proto"
	"farm/internal/sim"
)

func setup(t *testing.T) (*core.Cluster, proto.Addr) {
	t.Helper()
	c := core.New(core.Options{NumMachines: 4, Seed: 61})
	if _, err := c.CreateRegions(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	var addr proto.Addr
	err := RunSync(c, c.Machine(0), 0, func(tx *core.Tx, done func(error)) {
		tx.Alloc(8, []byte("workload"), nil, func(a proto.Addr, err error) {
			addr = a
			done(err)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, addr
}

func TestRunSync(t *testing.T) {
	c, addr := setup(t)
	var got []byte
	err := RunSync(c, c.Machine(2), 1, func(tx *core.Tx, done func(error)) {
		tx.Read(addr, 8, func(data []byte, err error) {
			got = data
			done(err)
		})
	})
	if err != nil || string(got) != "workload" {
		t.Fatalf("RunSync: %q %v", got, err)
	}
}

func TestGeneratorClosedLoop(t *testing.T) {
	c, addr := setup(t)
	ops := 0
	g := New(c, func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
		ops++
		m.LockFreeRead(thread, addr, 8, func(_ []byte, err error) { done(err == nil) })
	})
	g.Start([]int{0, 1, 2, 3}, 2, 3)
	c.RunFor(5 * sim.Millisecond)
	g.Stop()
	c.RunFor(sim.Millisecond)
	if g.Committed() == 0 || ops == 0 {
		t.Fatal("no operations ran")
	}
	// Closed loop: operations stop shortly after Stop.
	before := g.Committed()
	c.RunFor(5 * sim.Millisecond)
	if g.Committed() != before {
		t.Fatalf("operations continued after Stop: %d -> %d", before, g.Committed())
	}
}

func TestGeneratorWarmupExcluded(t *testing.T) {
	c, addr := setup(t)
	g := New(c, func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
		m.LockFreeRead(thread, addr, 8, func(_ []byte, err error) { done(err == nil) })
	})
	g.Warmup = 3 * sim.Millisecond
	g.Start([]int{1}, 1, 1)
	c.RunFor(2 * sim.Millisecond)
	if g.Latency.Count() != 0 {
		t.Fatalf("latency recorded during warmup: %d", g.Latency.Count())
	}
	c.RunFor(5 * sim.Millisecond)
	g.Stop()
	if g.Latency.Count() == 0 {
		t.Fatal("no latency after warmup")
	}
}

func TestGeneratorAbortBackoffAndAccounting(t *testing.T) {
	c, _ := setup(t)
	fail := true
	g := New(c, func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
		ok := !fail
		fail = !fail
		c.Eng.After(sim.Microsecond, func() { done(ok) })
	})
	g.Start([]int{0}, 1, 1)
	c.RunFor(2 * sim.Millisecond)
	g.Stop()
	if g.Aborted() == 0 || g.Committed() == 0 {
		t.Fatalf("accounting: committed=%d aborted=%d", g.Committed(), g.Aborted())
	}
	// Alternating success/failure: counts within 2x of each other.
	ratio := float64(g.Aborted()) / float64(g.Committed())
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("ratio %v", ratio)
	}
}

func TestRunPointReportsThroughputAndLatency(t *testing.T) {
	c, addr := setup(t)
	g := New(c, func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
		m.LockFreeRead(thread, addr, 8, func(_ []byte, err error) { done(err == nil) })
	})
	tput, med, p99 := g.RunPoint([]int{0, 1, 2, 3}, 2, 2, sim.Millisecond, 10*sim.Millisecond)
	if tput <= 0 || med <= 0 || p99 < med {
		t.Fatalf("RunPoint: %v %v %v", tput, med, p99)
	}
}

// TestPowerCycleDuringBackoffResumesEveryLoop: every loop is backing off from
// an abort when the power fails, so each back-off fires on a dead machine and
// parks its loop. Resume after RestorePower restarts them all: every loop
// commits again.
func TestPowerCycleDuringBackoffResumesEveryLoop(t *testing.T) {
	c, addr := setup(t)
	abort := false
	type loop struct{ m, thread int }
	commits := map[loop]int{}
	g := New(c, func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
		if abort {
			done(false)
			return
		}
		tx := m.Begin(thread)
		tx.Read(addr, 8, func(_ []byte, err error) {
			if err != nil {
				tx.Abort()
				done(false)
				return
			}
			tx.Commit(func(err error) {
				if err == nil {
					commits[loop{m.ID, thread}]++
				}
				done(err == nil)
			})
		})
	})
	g.Start([]int{0, 1, 2, 3}, 2, 1)
	c.RunFor(5 * sim.Millisecond)
	abort = true
	c.RunFor(sim.Millisecond) // every operation ends; each loop now aborts at once, and backs off
	c.PowerFailure()
	abort = false
	c.RunFor(50 * sim.Millisecond)
	c.RestorePower()
	g.Resume()
	clear(commits)
	c.RunFor(300 * sim.Millisecond)
	g.Stop()
	for mi := 0; mi < 4; mi++ {
		for th := 0; th < 2; th++ {
			if commits[loop{mi, th}] == 0 {
				t.Errorf("m%d thread %d committed nothing after the power returned", mi, th)
			}
		}
	}
}
