// farm-bench regenerates every table and figure of the paper's evaluation
// on the simulated cluster:
//
//	farm-bench -fig 1      NVRAM save energy vs SSD count (Figure 1)
//	farm-bench -fig 2      RDMA vs RPC read performance (Figure 2)
//	farm-bench -fig 4      commit protocol message-count analysis (§4)
//	farm-bench -fig 7      TATP throughput–latency curve (Figure 7)
//	farm-bench -fig 8      TPC-C throughput–latency curve (Figure 8)
//	farm-bench -fig kv     key-value lookup performance (§6.3)
//	farm-bench -fig 9      TATP failure timeline (Figure 9)
//	farm-bench -fig 10     TPC-C failure timeline (Figure 10)
//	farm-bench -fig 11     CM failure timeline (Figure 11)
//	farm-bench -fig 12     recovery-time distribution (Figure 12)
//	farm-bench -fig 13     correlated failure-domain kill (Figure 13)
//	farm-bench -fig 14     aggressive re-replication, TATP (Figure 14)
//	farm-bench -fig 15     aggressive re-replication, TPC-C (Figure 15)
//	farm-bench -fig 16     lease-manager false positives (Figure 16)
//	farm-bench -fig ablations  design-choice ablations (DESIGN.md)
//	farm-bench -fig all    everything
//
// All times are simulated; shapes, ratios and orderings are the
// reproduction targets (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"farm/internal/baseline"
	"farm/internal/exper"
	"farm/internal/sim"
)

// figures is every figure farm-bench regenerates, in -fig all's order.
var figures = []struct {
	name string
	run  func()
}{
	{"1", fig1}, {"2", fig2}, {"4", fig4}, {"7", fig7}, {"8", fig8}, {"kv", figKV},
	{"9", failure("TATP failure timeline (paper: back to peak < 50 ms; paced data recovery)",
		exper.KillBackup, "tatp", false)},
	{"10", failure("TPC-C failure timeline (paper: most throughput back < 50 ms; slower data recovery)",
		exper.KillBackup, "tpcc", false)},
	{"11", failure("CM failure timeline (paper: ~110 ms, slower than non-CM due to CM state rebuild)",
		exper.KillCM, "tatp", false)},
	{"12", fig12},
	{"13", failure("correlated failure: killing a whole failure domain (paper: peak back < 400 ms)",
		exper.KillDomain, "tatp", false)},
	{"14", failure("TATP with aggressive re-replication (paper: data recovered ~1.1 s but throughput dips)",
		exper.KillBackup, "tatp", true)},
	{"15", failure("TPC-C with aggressive re-replication (paper: 4× faster, no throughput impact)",
		exper.KillBackup, "tpcc", true)},
	{"16", fig16}, {"ablations", ablations},
}

func figureNames() string {
	var names []string
	for _, f := range figures {
		names = append(names, f.name)
	}
	return strings.Join(append(names, "all"), ",")
}

var (
	fig      = flag.String("fig", "all", "figure to regenerate ("+figureNames()+")")
	machines = flag.Int("machines", 9, "cluster size")
	threads  = flag.Int("threads", 8, "worker threads per machine")
	subs     = flag.Uint64("subscribers", 2000, "TATP subscribers")
	whs      = flag.Int("warehouses", 18, "TPC-C warehouses")
	runs     = flag.Int("runs", 10, "runs for the Figure 12 distribution")
	long     = flag.Bool("long", false, "longer measurement windows")
)

func scale() exper.Scale {
	sc := exper.DefaultScale()
	sc.Machines = *machines
	sc.Threads = *threads
	sc.Subscribers = *subs
	sc.Warehouses = *whs
	return sc
}

func window() (sim.Time, sim.Time) {
	if *long {
		return 10 * sim.Millisecond, 100 * sim.Millisecond
	}
	return 5 * sim.Millisecond, 30 * sim.Millisecond
}

func main() {
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "unexpected arguments")
		os.Exit(2)
	}
	ran := false
	for _, f := range figures {
		if *fig == f.name || *fig == "all" {
			fmt.Printf("==== Figure %s ====\n", f.name)
			f.run()
			fmt.Println()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown figure %q (want one of %s)\n", *fig, figureNames())
		os.Exit(2)
	}
}

func ablations() {
	sc := scale()
	warm, meas := window()
	fmt.Println("validation transport (tr threshold, §4):")
	fmt.Print(exper.FormatAblation(exper.AblationValidation(sc, warm, meas)))
	fmt.Println("\nTPC-C client/warehouse co-partitioning (§6.2):")
	fmt.Print(exper.FormatAblation(exper.AblationLocality(sc, warm, meas)))
	fmt.Println("\nlease duration vs detection delay (§5.1):")
	fmt.Print(exper.FormatAblation(exper.AblationLeaseDuration(sc,
		[]sim.Time{2 * sim.Millisecond, 5 * sim.Millisecond, 10 * sim.Millisecond, 50 * sim.Millisecond})))
	fmt.Println("\ndata-recovery pacing (§5.4, Figures 9 vs 14):")
	fmt.Print(exper.FormatAblation(exper.AblationRecoveryPacing(sc)))
}

func fig1() {
	fmt.Println("energy to copy one GB from DRAM to SSD (paper: ~110 J/GB at 1 SSD, falling)")
	fmt.Printf("%6s %12s %12s %14s\n", "SSDs", "J/GB", "$/GB", "save 256 GB")
	for _, r := range exper.Figure1() {
		fmt.Printf("%6d %12.1f %12.3f %14v\n", r.SSDs, r.JoulesPerGB, r.CostPerGB, r.SaveTime256)
	}
}

func fig2() {
	fmt.Println("per-machine read performance, ops/µs/machine (paper: RDMA ≈ 4× RPC, both CPU bound)")
	dur := 3 * sim.Millisecond
	if *long {
		dur = 10 * sim.Millisecond
	}
	fmt.Printf("%8s %10s %10s %8s\n", "size", "RDMA", "RPC", "ratio")
	for _, r := range exper.Figure2(*machines, 30, dur) {
		fmt.Printf("%8d %10.2f %10.2f %8.2f\n", r.Size, r.RDMA, r.RPC, r.RDMA/r.RPC)
	}
}

func fig4() {
	fmt.Println("commit cost analysis (§4): FaRM Pw(f+3) one-sided writes vs Spanner 4P(2f+1) messages")
	fmt.Printf("%4s %4s %14s %18s %18s\n", "P", "f", "FaRM writes", "Spanner formula", "Spanner measured")
	cfg := baseline.DefaultSpanner()
	for _, p := range []int{1, 2, 3} {
		meas := baseline.MeasureSpannerCommit(cfg, p)
		fmt.Printf("%4d %4d %14d %18d %18d\n",
			p, cfg.F,
			baseline.FaRMWritesFormula(p, cfg.F),
			baseline.SpannerMessagesFormula(p, cfg.F),
			meas.Messages)
	}
	fmt.Println("\nNSDI'14 → SOSP'15 protocol message reduction (paper: up to 44% fewer):")
	for _, pw := range []int{1, 2, 3} {
		old := baseline.NSDI14MessagesFormula(pw, 2)
		niu := baseline.FaRMWritesFormula(pw, 2)
		fmt.Printf("  Pw=%d f=2: %d → %d (%.0f%% fewer)\n", pw, old, niu, 100*float64(old-niu)/float64(old))
	}
}

func fig7() {
	warm, meas := window()
	fmt.Printf("TATP throughput–latency, %d machines (paper: 140 M/s on 90 machines; 1.55 M/s/machine)\n", *machines)
	fmt.Print(exper.FormatCurve(exper.Figure7(scale(), exper.LoadPoints(*threads), warm, meas)))
}

func fig8() {
	warm, meas := window()
	fmt.Printf("TPC-C new-order throughput–latency, %d machines (paper: 4.5 M/s; median 808 µs)\n", *machines)
	// TPC-C's curve is swept with ≥1 warehouse per driver (§6.2's ratio);
	// higher concurrencies with a capped database melt under OCC
	// contention, which is a scale artifact, not a protocol property.
	points := [][2]int{{2, 1}, {4, 1}, {*threads, 1}, {*threads, 2}}
	fmt.Print(exper.FormatCurve(exper.Figure8(scale(), points, warm, meas)))
}

func figKV() {
	warm, meas := window()
	p := exper.KVReadPerformance(scale(), warm, meas)
	fmt.Println("key-value lookups, 16 B keys / 32 B values, uniform (paper: 790 M/s; 23 µs median; 73 µs p99)")
	fmt.Print(exper.FormatCurve([]exper.CurvePoint{p}))
}

// failure is a failure-timeline figure: title, then one RunFailure.
func failure(title string, kind exper.FailureKind, workload string, aggressive bool) func() {
	return func() {
		fmt.Println(title)
		spec := exper.DefaultRecoverySpec(scale())
		spec.Kind = kind
		spec.Workload = workload
		spec.Aggressive = aggressive
		if *long {
			spec.Measure = 2 * sim.Second
		}
		if kind == exper.KillCM {
			spec.Measure *= 2
		}
		fmt.Print(exper.RunFailure(spec))
	}
}

func fig12() {
	fmt.Printf("recovery-time distribution over %d runs (paper: median ≈ 50 ms, all < 200 ms)\n", *runs)
	d := exper.RecoveryDistribution(scale(), *runs, 10*sim.Millisecond)
	fmt.Printf("  runs: %v\n", d)
	fmt.Printf("  p50=%.0fms p70=%.0fms p90=%.0fms max=%.0fms\n",
		exper.Percentile(d, 50), exper.Percentile(d, 70), exper.Percentile(d, 90), exper.Percentile(d, 100))
}

func fig16() {
	fmt.Println("lease false positives, normalized to a 10-minute run (paper Figure 16)")
	durations := []sim.Time{1 * sim.Millisecond, 2 * sim.Millisecond, 3 * sim.Millisecond,
		5 * sim.Millisecond, 10 * sim.Millisecond, 100 * sim.Millisecond, 1000 * sim.Millisecond}
	runFor := 1 * sim.Second
	if *long {
		runFor = 5 * sim.Second
	}
	sc := scale()
	sc.Machines = 6
	sc.Threads = 4
	fmt.Print(exper.FormatFig16(exper.Figure16(sc, durations, runFor)))
}
