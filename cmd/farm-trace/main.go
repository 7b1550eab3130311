// farm-trace runs a deterministic workload with causality tracing enabled
// and writes the merged Chrome trace_event JSON (open it in
// chrome://tracing or https://ui.perfetto.dev). The same seed produces the
// same file byte for byte, so a trace is a replayable artifact, not a
// sample. A phase-breakdown/critical-path report and, for runs that
// reconfigure, a Figure-9-style recovery timeline print to stdout.
//
//	farm-trace -seed 1 -workload recovery -out recovery.json
//	farm-trace -workload bank -sample 8 -out bank.json
//	farm-trace -workload chaos -out chaos.json
package main

import (
	"flag"
	"fmt"
	"os"

	"farm/internal/chaos"
	"farm/internal/exper"
	"farm/internal/sim"
	"farm/internal/trace"
)

var (
	seed     = flag.Uint64("seed", 1, "simulation seed (same seed → byte-identical JSON)")
	workload = flag.String("workload", "recovery", "workload: bank (fault-free transfers), recovery (TATP + one kill), chaos (randomized nemesis)")
	out      = flag.String("out", "farm-trace.json", "output path for the Chrome trace_event JSON")
	sample   = flag.Int("sample", 1, "trace 1 of every N transactions (recovery spans are always traced)")
	duration = flag.Duration("duration", 0, "virtual run time (0 = workload default)")
	machines = flag.Int("machines", 6, "cluster size")
	check    = flag.Bool("check", true, "validate the export against the trace_event schema before writing")
)

// recoverySteps are the §5 recovery span/event names a traced failure run
// must contain — suspect through re-replication, the Figure 9 milestones.
var recoverySteps = []string{
	"suspect", "probe", "zookeeper", "new-config", "config-commit",
	"drain", "lock-recovery", "vote-decide", "re-replication",
}

// commitPhases are the §4 commit-protocol span names.
var commitPhases = []string{"tx", "LOCK", "VALIDATE", "COMMIT-BACKUP", "COMMIT-PRIMARY", "TRUNCATE"}

func main() {
	flag.Parse()
	topts := trace.Options{Enabled: true, SampleN: 1, SampleM: *sample}

	var data []byte
	var report string
	var required []string
	switch *workload {
	case "bank":
		cfg := chaos.DefaultConfig()
		cfg.Seed = *seed
		cfg.Machines = *machines
		cfg.Trace = topts
		// No nemesis: a clean run whose trace is pure commit pipeline.
		cfg.KillWeight, cfg.CMKillWeight, cfg.PartitionWeight = 0, 0, 0
		cfg.OneWayWeight, cfg.FlapWeight = 0, 0
		cfg.GrayWeight, cfg.PowerWeight = 0, 0
		if *duration > 0 {
			cfg.Duration = sim.Time(duration.Nanoseconds())
		} else {
			cfg.Duration = 400 * sim.Millisecond
		}
		res := chaos.Run(cfg)
		if len(res.Violations) > 0 {
			fail("bank run violated invariants: %v", res.Violations)
		}
		fmt.Printf("bank: %d commits, %d aborts (%d for log space, %d unavailable) on %d machines\n",
			res.Commits, res.Aborts, res.NoLogSpace, res.Unavailable, cfg.Machines)
		data = res.TraceJSON
		required = commitPhases

	case "recovery":
		sc := exper.DefaultScale()
		sc.Machines = *machines
		sc.Seed = *seed
		spec := exper.DefaultRecoverySpec(sc)
		spec.Trace = topts
		if *duration > 0 {
			spec.Measure = sim.Time(duration.Nanoseconds())
		}
		run := exper.RunFailure(spec)
		fmt.Print(run)
		data = run.TraceJSON
		report = run.TraceReport
		// The full Figure 9 story: every commit phase and every §5 step.
		required = append(append([]string{}, commitPhases...), recoverySteps...)

	case "chaos":
		cfg := chaos.DefaultConfig()
		cfg.Seed = *seed
		cfg.Machines = *machines
		cfg.Trace = topts
		if *duration > 0 {
			cfg.Duration = sim.Time(duration.Nanoseconds())
		}
		res := chaos.Run(cfg)
		fmt.Println(res)
		if len(res.Violations) > 0 {
			fail("chaos run violated invariants: %v", res.Violations)
		}
		data = res.TraceJSON
		required = commitPhases

	default:
		fail("unknown workload %q (have bank, recovery, chaos)", *workload)
	}

	if len(data) == 0 {
		fail("workload produced no trace")
	}
	if *check {
		if err := trace.Validate(data, required); err != nil {
			fail("export failed schema validation: %v", err)
		}
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail("write %s: %v", *out, err)
	}
	fmt.Printf("\nwrote %d bytes of trace_event JSON to %s (load in chrome://tracing)\n", len(data), *out)
	if report != "" {
		fmt.Println()
		fmt.Print(report)
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "farm-trace: "+format+"\n", args...)
	os.Exit(1)
}
