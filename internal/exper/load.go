package exper

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"farm/internal/bank"
	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/sim"
	"farm/internal/tatp"
	"farm/internal/tpcc"
	"farm/internal/ycsb"
)

// This file is the one place that knows which workloads exist, how one is
// set up on a fresh cluster, and how a load point's measured window is
// taken. Every figure, cmd/farm-loadgen and internal/perf go through it.

// Scale is the common knob set for the simulated cluster.
type Scale struct {
	Machines    int
	Threads     int
	Subscribers uint64 // TATP subscribers / KV keys
	Warehouses  int    // TPC-C
	Accounts    int    // bank
	Regions     int    // extra data regions for TATP/KV/bank
	Seed        uint64
}

// DefaultScale is sized to run every experiment in seconds on a laptop.
func DefaultScale() Scale {
	return Scale{Machines: 9, Threads: 8, Subscribers: 2000, Warehouses: 18, Accounts: 4096, Regions: 6, Seed: 1}
}

// options sizes cluster knobs to the machine count: big clusters shrink
// the per-sender log rings (machines × machines of them) so memory stays
// bounded — a 100-machine cluster with default 256 KB rings would need
// gigabytes for rings alone.
func (s Scale) options() core.Options {
	o := core.Options{NumMachines: s.Machines, Threads: s.Threads, Seed: s.Seed}
	switch {
	case s.Machines >= 80:
		o.LogCapacity = 1 << 15
	case s.Machines >= 30:
		o.LogCapacity = 1 << 16
	}
	return o
}

func allMachines(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// bankInitial is the per-account starting balance of the bank workload;
// the value only matters in that it keeps declined transfers rare.
const bankInitial = 1000

// workloads is every workload a load point can run, by name. A set-up
// returns the operation the closed-loop clients run and, for TPC-C, the
// workload itself (new-order statistics, B-tree counters, locality); both
// are meaningful only when its error is nil.
var workloads = []struct {
	name  string
	setUp func(c *core.Cluster, sc Scale) (loadgen.Op, *tpcc.Workload, error)
}{
	{"tatp", func(c *core.Cluster, sc Scale) (loadgen.Op, *tpcc.Workload, error) {
		w, err := tatp.Setup(c, sc.Subscribers, sc.Regions)
		return w.Mix(), nil, err
	}},
	{"tpcc", func(c *core.Cluster, sc Scale) (loadgen.Op, *tpcc.Workload, error) {
		w, err := tpcc.Setup(c, tpcc.DefaultConfig(sc.Warehouses))
		return w.Mix(), w, err
	}},
	{"kv", func(c *core.Cluster, sc Scale) (loadgen.Op, *tpcc.Workload, error) {
		w, err := ycsb.Setup(c, sc.Subscribers, sc.Regions)
		return w.LookupOp(), nil, err
	}},
	{"bank", func(c *core.Cluster, sc Scale) (loadgen.Op, *tpcc.Workload, error) {
		w, err := bank.Setup(c, sc.Accounts, sc.Regions, bankInitial)
		return w.Mix(), nil, err
	}},
}

// Workloads lists the workload names, as a flag's help text.
func Workloads() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, " | ")
}

// populate sets the named workload up on c, sized by sc.
func populate(c *core.Cluster, name string, sc Scale) (loadgen.Op, *tpcc.Workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.setUp(c, sc)
		}
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want %s)", name, Workloads())
}

// Load is one load point (§6.3): a named workload on a fresh cluster of
// Scale, Active threads on every machine each keeping Concurrency
// operations in flight, warmed for Warm and then measured for Measure.
type Load struct {
	Scale
	Workload string
	// Active is the worker threads per machine that run clients; 0 means
	// all Scale.Threads.
	Active      int
	Concurrency int
	Warm        sim.Time
	Measure     sim.Time
}

// Setup is a load point set up on its cluster, before any load runs.
type Setup struct {
	Load
	C    *core.Cluster
	G    *loadgen.Generator
	TPCC *tpcc.Workload // the TPC-C workload, nil for the others
}

// SetUp builds the load point's cluster and populates its workload.
func (l Load) SetUp() (*Setup, error) { return l.setUp(l.options()) }

// setUp is SetUp on a cluster built with opts.
func (l Load) setUp(opts core.Options) (*Setup, error) {
	c := core.New(opts)
	op, tw, err := populate(c, l.Workload, l.Scale)
	if err != nil {
		return nil, err
	}
	if l.Active == 0 {
		l.Active = l.Threads
	}
	return &Setup{Load: l, C: c, G: loadgen.New(c, op), TPCC: tw}, nil
}

// Window is what a load point's measured window saw: every count is the
// difference between the window's end and its start.
type Window struct {
	Start              sim.Time // virtual time the window opened
	Committed, Aborted uint64   // closed-loop operations
	Events             uint64   // engine events executed
	Net, Counters      map[string]uint64
	// Busy is each machine's per-worker busy time.
	Busy [][]sim.Time
	// Descents is the TPC-C B-tree descent statistics (tpcc.DescentStats).
	Descents [5]uint64
	// Mallocs and AllocBytes are the host's heap allocations; HeapAlloc is
	// the live heap at the end.
	Mallocs, AllocBytes, HeapAlloc uint64
	Wall                           time.Duration
}

// Drive starts the closed loops, runs the warm-up and measures one window.
// Latency (G.Latency, TPCC.NewOrderLat) is recorded over the window only.
func (s *Setup) Drive() Window {
	c, g := s.C, s.G
	if s.TPCC != nil {
		s.TPCC.MeasureFrom = c.Now() + s.Warm
	}
	g.Warmup = s.Warm
	g.Start(allMachines(s.Machines), s.Active, s.Concurrency)
	c.RunFor(s.Warm)

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w := Window{Start: c.Now(), Committed: g.Committed(), Aborted: g.Aborted(), Events: c.Eng.Executed()}
	net, counters, busy := c.Net.Counters.Snapshot(), c.Counters.Snapshot(), s.busy()
	if s.TPCC != nil {
		w.Descents = s.TPCC.DescentStats()
	}
	t0 := time.Now()
	c.RunFor(s.Measure)
	w.Wall = time.Since(t0)
	runtime.ReadMemStats(&ms1)

	w.Committed, w.Aborted = g.Committed()-w.Committed, g.Aborted()-w.Aborted
	w.Events = c.Eng.Executed() - w.Events
	w.Net, w.Counters, w.Busy = c.Net.Counters.Diff(net), c.Counters.Diff(counters), s.busy()
	for i := range w.Busy {
		for th := range w.Busy[i] {
			w.Busy[i][th] -= busy[i][th]
		}
	}
	if s.TPCC != nil {
		for i, v := range s.TPCC.DescentStats() {
			w.Descents[i] = v - w.Descents[i]
		}
	}
	w.Mallocs, w.AllocBytes, w.HeapAlloc = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, ms1.HeapAlloc
	return w
}

func (s *Setup) busy() [][]sim.Time {
	out := make([][]sim.Time, s.Machines)
	for i := range out {
		out[i] = s.C.Machine(i).WorkerBusy()
	}
	return out
}
