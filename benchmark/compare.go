package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// metricDef is the direction of a metric and the bound by which it may get
// worse, as a share of the baseline, before it counts as a regression.
type metricDef struct {
	name   string
	higher bool // higher is better
	bound  float64
}

// endToEndDefs mirrors the end_to_end block of BENCHMARK.json (a test
// holds the two together).
var endToEndDefs = []metricDef{
	{"tx_per_vsec", true, 0.06},
	{"tx_p50_us", false, 0.10},
	{"tx_p99_us", false, 0.10},
	{"commit_frac", true, 0.015},
	{"allocs_per_tx", false, 0.05},
	{"live_heap_mb", false, 0.10},
	{"setup_s", false, 0.25},
}

// wallRateDef is the one per-layer metric -compare also reads: the
// simulator's useful-work rate. BENCHMARK.json cannot bound it (this host's
// run-to-run spread is as wide as the widest bound it allows), so it is
// judged here, between two documents of paired runs, with its spread.
var wallRateDef = metricDef{"sim.tx_per_wsec", true, 0.25}

func loadDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schema)
	}
	return &d, nil
}

func (r *workloadResult) find(name string) *metric {
	for _, ms := range [][]metric{r.EndToEnd, r.PerLayer} {
		for i := range ms {
			if ms[i].Name == name {
				return &ms[i]
			}
		}
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric (and the wall
// rate of traced documents), both values, the change and the bound, with a
// verdict:
//
//	ok          not worse than the baseline by more than the bound
//	REGRESSED   worse by more than the bound
//	DIFFERS     a virtual-time metric changed between two runs of one seed,
//	            which a simulator-only change must never cause
//	unresolved  within the bound, but the inputs' own sub-window quartile
//	            spread exceeds it, so "unchanged" cannot be claimed
//
// It returns the process exit code: 1 if any row is REGRESSED or DIFFERS.
func compareFiles(pathA, pathB string, w io.Writer) int {
	var docs [2]*document
	for i, path := range []string{pathA, pathB} {
		d, err := loadDocument(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		docs[i] = d
	}
	return compareDocuments(docs[0], docs[1], w)
}

func compareDocuments(a, b *document, w io.Writer) int {
	code := 0
	defs := append(append([]metricDef(nil), endToEndDefs...), wallRateDef)
	fmt.Fprintf(w, "%-14s %-15s %5s %16s %16s %9s %7s  %s\n", "workload", "metric", "clock", "a", "b", "change", "bound", "verdict")
	for i := range a.Workloads {
		ra := &a.Workloads[i]
		var rb *workloadResult
		for j := range b.Workloads {
			if b.Workloads[j].Workload == ra.Workload {
				rb = &b.Workloads[j]
			}
		}
		if rb == nil {
			fmt.Fprintf(w, "%-14s missing from b\n", ra.Workload)
			code = 1
			continue
		}
		sameSeed := ra.Seed == rb.Seed && ra.WindowVms == rb.WindowVms
		for _, def := range defs {
			ma, mb := ra.find(def.name), rb.find(def.name)
			if ma == nil || mb == nil {
				continue
			}
			change := (mb.Value - ma.Value) / ma.Value
			worse := change
			if def.higher {
				worse = -change
			}
			verdict := "ok"
			switch {
			case ma.Clock == "V" && sameSeed && ma.Value != mb.Value:
				verdict = "DIFFERS"
			case worse > def.bound:
				verdict = "REGRESSED"
			case math.Max(ma.Spread, mb.Spread) > def.bound:
				verdict = "unresolved"
			}
			if verdict == "DIFFERS" || verdict == "REGRESSED" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-15s %5s %16.6g %16.6g %+8.2f%% %6.3g%%  %s\n",
				ra.Workload, def.name, ma.Clock, ma.Value, mb.Value, change*100, def.bound*100, verdict)
		}
	}
	return code
}
