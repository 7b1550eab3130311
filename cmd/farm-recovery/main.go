// farm-recovery runs a scripted failure scenario and prints a detailed
// recovery report: milestones, per-millisecond survivor throughput, and
// the re-replication curve. It is the CLI twin of examples/recovery with
// all knobs exposed.
//
//	farm-recovery -victim cm -lease 5ms
//	farm-recovery -victim domain -machines 9
//	farm-recovery -workload tpcc -aggressive
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"farm/internal/exper"
	"farm/internal/sim"
)

var (
	machines   = flag.Int("machines", 9, "cluster size")
	threads    = flag.Int("threads", 8, "worker threads per machine")
	workload   = flag.String("workload", "tatp", exper.Workloads())
	victim     = flag.String("victim", "backup", "backup | cm | domain")
	lease      = flag.Duration("lease", 10*time.Millisecond, "lease duration")
	warm       = flag.Duration("warm", 40*time.Millisecond, "load before the kill")
	runFor     = flag.Duration("run", 600*time.Millisecond, "time after the kill")
	aggressive = flag.Bool("aggressive", false, "aggressive data recovery (4×32 KB)")
	plot       = flag.Bool("plot", true, "print ASCII throughput timeline")
)

func main() {
	flag.Parse()
	sc := exper.DefaultScale()
	sc.Machines = *machines
	sc.Threads = *threads

	spec := exper.DefaultRecoverySpec(sc)
	spec.Workload = *workload
	spec.Lease = sim.Time(lease.Nanoseconds())
	spec.Warm = sim.Time(warm.Nanoseconds())
	spec.Measure = sim.Time(runFor.Nanoseconds())
	spec.Aggressive = *aggressive
	kind, err := exper.ParseVictim(*victim)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	spec.Kind = kind

	fmt.Printf("workload=%s victim=%s lease=%v machines=%d threads=%d aggressive=%v\n\n",
		*workload, *victim, *lease, *machines, *threads, *aggressive)
	run := exper.RunFailure(spec)
	fmt.Print(run)

	if *plot {
		fmt.Println("\nthroughput (1 ms buckets, ±50 ms around the kill):")
		fmt.Print(run.Plot(50*sim.Millisecond, "#", 6))
	}
}
