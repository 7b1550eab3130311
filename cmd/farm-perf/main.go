// farm-perf measures the simulator and the protocol hot path: host events
// per second, committed-transaction latency percentiles (virtual time),
// fabric messages and wire bytes per committed transaction, abort rate.
// The result is the perf trajectory committed as BENCH_sim.json. With -check
// (on by default) the fresh measurement is compared against the committed
// baseline and the run fails on a >10% growth in committed-tx p99 or
// msgs/tx, or in a kill point's config-commit or throughput-back time.
// Those are deterministic, so the gate is tight and never fires on host
// noise. Events/sec is printed beside them and not gated: it swings
// with host load, and a wall-time claim needs paired runs of both binaries.
//
//	farm-perf                          # measure, check against BENCH_sim.json
//	farm-perf -update                  # measure and rewrite the baseline
//	farm-perf -out /tmp/b.json -check=false
//	farm-perf -exact-threshold 0.05    # tolerate up to 5% p99 or msgs/tx growth
package main

import (
	"flag"
	"fmt"
	"os"

	"farm/internal/perf"
)

var (
	baselinePath = flag.String("baseline", "BENCH_sim.json", "committed baseline to compare against")
	outPath      = flag.String("out", "", "write the fresh report to this path (empty: don't write)")
	check        = flag.Bool("check", true, "fail on regression against the baseline")
	exactThresh  = flag.Float64("exact-threshold", 0.10, "allowed fractional growth of the deterministic metrics (tx p99, msgs/tx, recovery times)")
	update       = flag.Bool("update", false, "rewrite the baseline with the fresh measurement")
)

// pct formats a fresh-vs-baseline delta as a signed percentage.
func pct(fresh, base float64) string {
	if base == 0 {
		return "    —"
	}
	return fmt.Sprintf("%+5.1f%%", (fresh-base)/base*100)
}

// printComparison renders the fresh measurement next to the committed
// baseline, one row per point: the reported events/sec, then the gated
// columns — for a kill point, its config-commit and throughput-back times.
func printComparison(baseline, fresh *perf.Report) {
	fmt.Println("\nfresh vs committed baseline:")
	fmt.Printf("%-13s %12s %8s  %12s %8s  %10s %8s\n",
		"point", "ev/s", "Δ", "tx p99 µs", "Δ", "msgs/tx", "Δ")
	for _, b := range baseline.Points {
		g := fresh.Point(b.Name)
		switch {
		case g == nil:
			fmt.Printf("%-13s  MISSING from fresh report\n", b.Name)
			continue
		case b.ConfigCommitMs > 0:
			fmt.Printf("%-13s config-commit %6.2f ms %8s  throughput back %5.1f ms %8s\n",
				b.Name, g.ConfigCommitMs, pct(g.ConfigCommitMs, b.ConfigCommitMs),
				g.TputBackMs, pct(g.TputBackMs, b.TputBackMs))
			continue
		}
		fmt.Printf("%-13s %12.0f %8s  %12.1f %8s  %10.2f %8s\n",
			b.Name,
			g.EventsPerSec, pct(g.EventsPerSec, b.EventsPerSec),
			g.TxP99Us, pct(g.TxP99Us, b.TxP99Us),
			g.MsgsPerTx, pct(g.MsgsPerTx, b.MsgsPerTx))
	}
}

func main() {
	flag.Parse()

	report, err := perf.RunAll(perf.DefaultSpecs(), func(line string) { fmt.Println(line) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "farm-perf:", err)
		os.Exit(1)
	}
	fmt.Printf("peak machines simulated: %d; engine steady-state allocs/event: %.2f\n",
		report.PeakMachines, report.EngineAllocsPerEvent)

	if *outPath != "" {
		if err := report.WriteFile(*outPath); err != nil {
			fmt.Fprintln(os.Stderr, "farm-perf:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *outPath)
	}
	if *update {
		if err := report.WriteFile(*baselinePath); err != nil {
			fmt.Fprintln(os.Stderr, "farm-perf:", err)
			os.Exit(1)
		}
		fmt.Println("updated baseline", *baselinePath)
		return
	}
	if !*check {
		return
	}
	baseline, err := perf.LoadReport(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "farm-perf: no baseline:", err)
		fmt.Fprintln(os.Stderr, "run `farm-perf -update` to create one")
		os.Exit(1)
	}
	printComparison(baseline, report)
	if bad := perf.Compare(baseline, report, *exactThresh); len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "REGRESSION:", b)
		}
		os.Exit(1)
	}
	fmt.Printf("PASS: no point's p99, msgs/tx or recovery time grew more than %.0f%% vs %s\n",
		*exactThresh*100, *baselinePath)
}
