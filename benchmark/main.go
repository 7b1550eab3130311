// Command benchmark is the repository's one benchmark: six named
// workloads, seven end-to-end metrics on two clocks (virtual time is the
// protocol, wall time is the simulator) and a traced per-layer run. See
// README.md beside this file and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"

	"farm/internal/sim"
)

// metric is one named number. Clock says what it was measured against: V
// is virtual time (repeats exactly for a seed and binary), W is host wall
// time, CPU is this process's CPU time, count is a host-side count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock,omitempty"`
	// Samples is the sample count behind a percentile or a median.
	Samples uint64 `json:"samples,omitempty"`
	// Spread is the quartile spread of the sub-window rates behind a wall
	// rate, as a share of their median; -compare uses it to tell
	// "unchanged" from "unresolved".
	Spread float64 `json:"spread,omitempty"`
}

// workloadResult is one workload's section of the -out document.
type workloadResult struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Seed      uint64   `json:"seed"`
	Clients   int      `json:"clients"`
	WindowVms float64  `json:"window_virtual_ms"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Checks    []string `json:"failed_checks"`
	// HostEvents is the engine event count of the untraced window: a
	// fingerprint of the whole schedule.
	HostEvents uint64   `json:"host_events,omitempty"`
	EndToEnd   []metric `json:"end_to_end,omitempty"`
	PerLayer   []metric `json:"per_layer,omitempty"`
}

type envBlock struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"seconds"`
}

type document struct {
	Schema    string           `json:"schema"`
	Env       envBlock         `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

const schema = "farm/benchmark/v1"

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "workload seed (core.Options.Seed)")
		seconds  = flag.Float64("seconds", 8, "wall seconds one measure window is sized for on the reference host")
		traced   = flag.Int("trace", -1, "0: end-to-end metrics; 1: per-layer metrics from a traced run; default: both")
		out      = flag.String("out", "", "write the full JSON document here")
		traceOut = flag.String("trace-out", "", "write the traced run's spans here (Chrome trace_event)")
		compare  = flag.Bool("compare", false, "compare two -out documents given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if *seconds <= 0 || *traced < -1 || *traced > 1 || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	var run []*spec
	if *workload == "all" {
		for i := range specs {
			run = append(run, &specs[i])
		}
	} else if sp := specByName(*workload); sp != nil {
		run = []*spec{sp}
	} else {
		fatal("unknown workload %q", *workload)
	}

	doc := document{Schema: schema, Env: environment(*seconds)}
	spans := new(spanLog)
	ok := true
	var last workloadResult
	for _, sp := range run {
		res, err := runWorkload(sp, *seed, *seconds, *traced != 1, *traced != 0, spans)
		if err != nil {
			fatal("%v", err)
		}
		for _, m := range append(append([]metric(nil), res.EndToEnd...), res.PerLayer...) {
			fmt.Printf("%-14s %-34s %16.6g %s\n", sp.name, m.Name, m.Value, m.Unit)
		}
		for _, c := range res.Checks {
			fmt.Fprintln(os.Stderr, "FAILED CHECK:", c)
			ok = false
		}
		doc.Workloads = append(doc.Workloads, res)
		last = res
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fatal("%v", err)
		}
	}
	if *traceOut != "" {
		if err := spans.writeFile(*traceOut); err != nil {
			fatal("%v", err)
		}
	}
	// The last line is the result object the driver reads: one workload,
	// one of the two metric sets.
	if len(run) == 1 && *traced >= 0 {
		fmt.Println(resultLine(last, *traced == 1))
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload runs the untraced pass, the traced pass, or both. End-to-end
// numbers always come from the untraced pass. A traced-only invocation
// splits --seconds between an untraced reference pass and the traced pass,
// so that it costs what an untraced invocation costs and still measures
// trace.overhead_frac against the same process and host state.
func runWorkload(sp *spec, seed uint64, seconds float64, e2e, layers bool, spans *spanLog) (workloadResult, error) {
	window := func(s float64) sim.Time {
		return sim.Time(sp.vmsPerSec * s * float64(sim.Millisecond))
	}
	res := workloadResult{Workload: sp.name, Why: sp.why, Seed: seed, Clients: sp.clients(), Checks: []string{}}
	if layers && !e2e {
		seconds /= 2
	}
	ref := &pass{sp: sp, seed: seed, window: window(seconds)}
	setups := 1
	if e2e {
		setups = setupRepeats
	}
	if err := ref.run(setups, nil); err != nil {
		return res, err
	}
	res.WindowVms = ref.window.Millis()
	res.Attempted, res.Failed = ref.attempts(), ref.opFails
	res.Checks = append(res.Checks, ref.failed...)
	res.HostEvents = ref.events()
	if e2e {
		res.EndToEnd = ref.endToEnd()
	}
	if layers {
		tr := &pass{sp: sp, seed: seed, window: window(seconds), traced: true}
		ref.c, ref.drv = nil, nil // let the reference cluster go before the traced one is built
		defaultRate := runtime.MemProfileRate
		runtime.MemProfileRate = memProfileRate
		err := tr.run(1, spans)
		runtime.MemProfileRate = defaultRate
		if err != nil {
			return res, err
		}
		res.Checks = append(res.Checks, tr.failed...)
		res.Failed += tr.opFails
		res.PerLayer = tr.perLayer(ref)
	}
	return res, nil
}

// setupRepeats is how often a pass that reports setup_s sets up; setup_s
// is the median. Set-up is between 0.05 s (bank) and 2 s (100 machines).
const setupRepeats = 3

func resultLine(res workloadResult, layers bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := res.EndToEnd
	if layers {
		ms = res.PerLayer
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.Checks) == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range ms {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	return string(b)
}

func environment(seconds float64) envBlock {
	e := envBlock{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown", Seconds: seconds}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
