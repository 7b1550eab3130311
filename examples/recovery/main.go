// Recovery: reproduce the Figure 9 experiment interactively — run TATP,
// kill a machine, and watch the throughput timeline, the recovery
// milestones (suspect → probe → Zookeeper → config-commit → all-active →
// paced data recovery), and the traced causality timeline assembled from
// every machine's span buffer.
package main

import (
	"fmt"

	"farm/internal/exper"
	"farm/internal/sim"
	"farm/internal/trace"
)

func main() {
	sc := exper.DefaultScale()
	sc.Machines = 6
	sc.Threads = 6
	sc.Subscribers = 800

	spec := exper.DefaultRecoverySpec(sc)
	spec.Lease = 10 * sim.Millisecond // the paper's configuration (§6.1)
	spec.Warm = 50 * sim.Millisecond
	spec.Measure = 600 * sim.Millisecond
	spec.Trace = trace.Options{Enabled: true}

	fmt.Printf("running TATP on %d machines, killing the most-loaded non-CM machine after %v of load...\n\n",
		sc.Machines, spec.Warm)
	run := exper.RunFailure(spec)
	fmt.Print(run)

	// ASCII throughput timeline around the failure (Figure 9a).
	fmt.Println("\nthroughput (1 ms buckets, ± 50 ms around the kill):")
	fmt.Print(run.Plot(50*sim.Millisecond, "█", 5))

	fmt.Println("\nre-replication progress (paced, §5.4):")
	for _, r := range run.RegionsRecovered {
		fmt.Printf("  +%8v  %d regions\n", r.After, r.Count)
	}

	// The traced view of the same run: per-phase span durations and the
	// cross-machine recovery timeline (use cmd/farm-trace to dump the full
	// Chrome trace_event JSON for chrome://tracing).
	fmt.Println("\ntraced recovery timeline:")
	fmt.Print(run.TraceReport)
}
