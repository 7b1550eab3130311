// Package loadgen drives closed-loop workloads against a cluster the way
// the paper's benchmarks do (§6.3): every machine runs the benchmark code
// itself (symmetric model), each worker thread keeps a fixed number of
// operations outstanding, and the harness records per-operation latency
// histograms and a 1 ms throughput timeline. Load is varied by changing
// active thread count and per-thread concurrency, exactly how Figures 7–8
// sweep their throughput–latency curves.
package loadgen

import (
	"runtime"

	"farm/internal/core"
	"farm/internal/sim"
	"farm/internal/stats"
)

// Op runs one operation on machine m / worker thread `thread` and must
// call done exactly once (ok=false counts as an abort/retry, not reported
// in throughput).
type Op func(m *core.Machine, thread int, rng *sim.Rand, done func(ok bool))

// Generator drives Ops in a closed loop.
type Generator struct {
	c  *core.Cluster
	op Op

	// Latency is recorded for successful operations only, after Warmup.
	Latency *stats.Histogram
	// Timeline counts successful completions per 1 ms bucket.
	Timeline *stats.Timeline
	// Warmup excludes the initial ramp from the statistics.
	Warmup sim.Time

	committed uint64
	aborted   uint64
	stopped   bool
	startAt   sim.Time
	slots     []opSlot
}

// opSlot is one closed loop: where it runs, its random stream, and whether
// it has an operation open and since when, or is parked on a dead machine.
// Its continuations — an operation's done and the back-off after an abort —
// are bound once, when the loop starts.
type opSlot struct {
	g      *Generator
	m      *core.Machine
	thread int
	rng    *sim.Rand
	open   bool
	parked bool
	began  sim.Time

	doneFn  func(ok bool)
	retryFn func()
}

// New creates a generator for op.
func New(c *core.Cluster, op Op) *Generator {
	return &Generator{
		c:        c,
		op:       op,
		Latency:  stats.NewHistogram(),
		Timeline: stats.NewTimeline(sim.Millisecond),
	}
}

// Start launches the closed loops, once per generator: on every listed
// machine, `threads` worker threads each keep `concurrency` operations
// outstanding.
func (g *Generator) Start(machines []int, threads, concurrency int) {
	g.startAt = g.c.Eng.Now()
	g.slots = make([]opSlot, 0, len(machines)*threads*concurrency)
	for _, mi := range machines {
		for th := 0; th < threads; th++ {
			for slot := 0; slot < concurrency; slot++ {
				rng := sim.NewRand(g.c.Opts.Seed*1_000_003 + uint64(mi)*1009 + uint64(th)*31 + uint64(slot) + 1)
				g.slots = append(g.slots, opSlot{m: g.c.Machines[mi], thread: th, rng: rng})
			}
		}
	}
	for i := range g.slots {
		s := &g.slots[i]
		s.g, s.doneFn, s.retryFn = g, s.done, s.loop
		s.loop()
	}
}

// loop starts the slot's next operation. On a dead machine the slot parks
// until Resume.
func (s *opSlot) loop() {
	g := s.g
	if g.stopped {
		return
	}
	if s.parked = !s.m.Alive(); s.parked {
		return
	}
	s.open, s.began = true, g.c.Eng.Now()
	g.op(s.m, s.thread, s.rng, s.doneFn)
}

// done ends the slot's operation and starts the next, at once after a
// success and after a brief back-off after an abort (conflict retry).
func (s *opSlot) done(ok bool) {
	g := s.g
	s.open = false
	now := g.c.Eng.Now()
	if ok {
		g.committed++
		if now-g.startAt >= g.Warmup {
			g.Latency.Record(now - s.began)
			g.Timeline.Add(now, 1)
		}
		s.loop()
		return
	}
	g.aborted++
	g.c.Eng.After(s.rng.Duration(20*sim.Microsecond)+sim.Microsecond, s.retryFn)
}

// Open counts machine mi's operations that began at or after since and
// have not finished.
func (g *Generator) Open(mi int, since sim.Time) int {
	n := 0
	for i := range g.slots {
		if s := &g.slots[i]; s.open && s.m.ID == mi && s.began >= since {
			n++
		}
	}
	return n
}

// Resume restarts, in slot order, every loop parked on a machine that is
// alive again: a loop that was backing off from an abort when its machine
// lost power finds it dead and parks, and the caller resumes it after
// RestorePower.
func (g *Generator) Resume() {
	for i := range g.slots {
		if s := &g.slots[i]; s.parked && s.m.Alive() {
			s.loop()
		}
	}
}

// Stop ends the loops after in-flight operations complete.
func (g *Generator) Stop() { g.stopped = true }

// Committed and Aborted report operation counts.
func (g *Generator) Committed() uint64 { return g.committed }
func (g *Generator) Aborted() uint64   { return g.aborted }

// ThroughputPerSecond is the successful-operation rate over [from, to).
func (g *Generator) ThroughputPerSecond(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	return g.Timeline.WindowAverage(from, to) * 1000
}

// RunSync drives one transaction to completion synchronously (setup and
// population helper). fn must call done(err) exactly once; a nil error
// commits the transaction.
func RunSync(c *core.Cluster, m *core.Machine, thread int, fn func(tx *core.Tx, done func(error))) error {
	finished := false
	var result error
	tx := m.Begin(thread)
	fn(tx, func(err error) {
		if err != nil {
			finished, result = true, err
			return
		}
		tx.Commit(func(err error) { finished, result = true, err })
	})
	deadline := c.Eng.Now() + 30*sim.Second
	for !finished && c.Eng.Now() < deadline {
		if !c.Eng.Step() {
			break
		}
	}
	if !finished {
		return core.ErrUnavailable
	}
	return result
}

// AllocsPerOp runs the cluster for window, with g loaded, and returns the
// heap allocations per operation g committed over it, and how many it
// committed. The window runs in a function of its own, allocWindow, so that
// an allocation profile can be narrowed to it (make allocs).
func (g *Generator) AllocsPerOp(window sim.Time) (float64, uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops := g.committed
	allocWindow(g.c, window)
	runtime.ReadMemStats(&m1)
	ops = g.committed - ops
	return float64(m1.Mallocs-m0.Mallocs) / float64(max(ops, 1)), ops
}

func allocWindow(c *core.Cluster, d sim.Time) { c.RunFor(d) }

// RunPoint drives one load point for the throughput–latency sweeps: run
// for warmup+measure of virtual time and return (throughput ops/s, median,
// p99).
func (g *Generator) RunPoint(machines []int, threads, concurrency int, warmup, measure sim.Time) (float64, sim.Time, sim.Time) {
	g.Warmup = warmup
	g.Start(machines, threads, concurrency)
	g.c.Eng.RunFor(warmup + measure)
	g.Stop()
	start := g.startAt + warmup
	tput := g.ThroughputPerSecond(start, start+measure)
	return tput, g.Latency.Median(), g.Latency.P99()
}
