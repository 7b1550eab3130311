// Package exper reproduces the paper's experiments: every table and figure
// of the evaluation (§2.1 Figure 1 through §6.5 Figure 16) has a function
// here that runs the scaled simulation and returns the series the paper
// plots. cmd/farm-bench renders them as text; bench_test.go wraps them as
// Go benchmarks. EXPERIMENTS.md records paper-vs-measured values.
package exper

import (
	"fmt"
	"strings"

	"farm/internal/baseline"
	"farm/internal/nvram"
	"farm/internal/sim"
)

// --- Figure 1: energy to copy one GB from DRAM to SSD ---

// Fig1Row is one bar of Figure 1.
type Fig1Row struct {
	SSDs        int
	JoulesPerGB float64
	CostPerGB   float64
	SaveTime256 sim.Time // time to save a 256 GB machine
}

// Figure1 evaluates the distributed-UPS save model for 1–4 SSDs.
func Figure1() []Fig1Row {
	m := nvram.DefaultSaveModel()
	var rows []Fig1Row
	for ssds := 1; ssds <= 4; ssds++ {
		rows = append(rows, Fig1Row{
			SSDs:        ssds,
			JoulesPerGB: m.EnergyPerGB(ssds),
			CostPerGB:   m.CostPerGB(ssds),
			SaveTime256: m.SaveTime(256, ssds),
		})
	}
	return rows
}

// --- Figure 2: per-machine RDMA vs RPC read performance ---

// Figure2 sweeps transfer sizes, returning ops/µs/machine for both
// transports.
func Figure2(machines, threads int, duration sim.Time) []baseline.ReadBenchResult {
	cfg := baseline.DefaultReadBench()
	cfg.Machines = machines
	cfg.Threads = threads
	var rows []baseline.ReadBenchResult
	for _, size := range []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048} {
		rows = append(rows, baseline.RunReadBench(cfg, size, duration))
	}
	return rows
}

// --- Figures 7 and 8: throughput–latency curves ---

// CurvePoint is one load point of a throughput–latency curve.
type CurvePoint struct {
	Threads     int
	Concurrency int
	Tput        float64 // committed ops/s (new orders/s for TPC-C)
	PerMachine  float64 // ops/s/machine
	Median      sim.Time
	P99         sim.Time
	AbortRate   float64
}

// LoadPoints is the default sweep: grow threads, then concurrency (§6.3:
// "we varied the load by first increasing the number of active threads per
// machine ... and then increasing the concurrency per thread").
func LoadPoints(maxThreads int) [][2]int {
	var pts [][2]int
	for _, th := range []int{2, 4, maxThreads} {
		if th <= maxThreads {
			pts = append(pts, [2]int{th, 1})
		}
	}
	for _, cc := range []int{2, 4, 8} {
		pts = append(pts, [2]int{maxThreads, cc})
	}
	return pts
}

// Figure7 runs the TATP throughput–latency sweep; each point uses a fresh
// cluster for isolation.
func Figure7(sc Scale, points [][2]int, warm, measure sim.Time) []CurvePoint {
	var out []CurvePoint
	for _, p := range points {
		out = append(out, mustSetUp(Load{Scale: sc, Workload: "tatp",
			Active: p[0], Concurrency: p[1], Warm: warm, Measure: measure}).curvePoint())
	}
	return out
}

// Figure8 runs the TPC-C sweep, reporting committed "new order"
// transactions per second as the paper does. TPC-C contention is governed
// by drivers-per-warehouse (the paper runs 21600 warehouses for 2700
// threads, ≈ 8 per driver), so the database is sized to the load point:
// at least one warehouse per driver, with Scale.Warehouses as a floor.
func Figure8(sc Scale, points [][2]int, warm, measure sim.Time) []CurvePoint {
	var out []CurvePoint
	for _, p := range points {
		l := Load{Scale: sc, Workload: "tpcc", Active: p[0], Concurrency: p[1], Warm: warm, Measure: measure}
		// Cap database size so population stays tractable; beyond the cap
		// the drivers-per-warehouse ratio (and with it the abort rate)
		// rises above the paper's, which EXPERIMENTS.md notes.
		l.Warehouses = min(max(sc.Warehouses, sc.Machines*p[0]*p[1]), 96)
		out = append(out, mustSetUp(l).curvePoint())
	}
	return out
}

// KVReadPerformance reproduces §6.3's lookup workload (16 B keys, 32 B
// values, uniform): throughput and latency of lock-free reads.
func KVReadPerformance(sc Scale, warm, measure sim.Time) CurvePoint {
	return mustSetUp(Load{Scale: sc, Workload: "kv", Concurrency: 4, Warm: warm, Measure: measure}).curvePoint()
}

func mustSetUp(l Load) *Setup {
	s, err := l.SetUp()
	if err != nil {
		panic(err)
	}
	return s
}

// curvePoint drives the load point and reports its window as a point of a
// throughput–latency curve; TPC-C reports committed new orders.
func (s *Setup) curvePoint() CurvePoint {
	w := s.Drive()
	p := CurvePoint{Threads: s.Active, Concurrency: s.Concurrency,
		Tput: s.G.ThroughputPerSecond(w.Start, w.Start+s.Measure), Median: s.G.Latency.Median(), P99: s.G.Latency.P99(),
		AbortRate: rate(s.G.Aborted(), s.G.Committed())}
	if s.TPCC != nil {
		p.Tput = s.TPCC.NewOrderTimeline.WindowAverage(w.Start, w.Start+s.Measure) * 1000
		p.Median, p.P99 = s.TPCC.NewOrderLat.Median(), s.TPCC.NewOrderLat.P99()
	}
	p.PerMachine = p.Tput / float64(s.Machines)
	return p
}

func rate(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// FormatCurve renders curve points as a table.
func FormatCurve(points []CurvePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %6s %14s %14s %12s %12s %8s\n",
		"threads", "conc", "tput(op/s)", "per-machine", "median", "p99", "aborts")
	for _, p := range points {
		fmt.Fprintf(&b, "%8d %6d %14.0f %14.0f %12v %12v %7.1f%%\n",
			p.Threads, p.Concurrency, p.Tput, p.PerMachine, p.Median, p.P99, p.AbortRate*100)
	}
	return b.String()
}
