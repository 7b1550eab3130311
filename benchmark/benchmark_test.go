package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"farm/internal/sim"
)

// toy shrinks a workload to 5 machines × 2 threads and a small database,
// so every workload runs in well under a second. Five machines, not four:
// with 3-way replication the failure run needs a spare to re-replicate to.
func toy(sp spec) *spec {
	sp.machines, sp.threads = 5, 2
	if sp.rows > 0 {
		sp.rows = 512
	}
	if sp.lease > 0 {
		sp.lease = 2 * sim.Millisecond
	}
	return &sp
}

// toySeconds sizes the toy window: fault-free workloads get 2 virtual ms,
// the failure run enough to detect, reconfigure and re-replicate.
func toySeconds(sp *spec) float64 {
	vms := 2.0
	if sp.killFrac > 0 {
		vms = 60
	}
	return vms / sp.vmsPerSec
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestToyWorkloads runs every workload at toy scale, untraced and traced,
// and holds what it prints against BENCHMARK.json: each declared name is
// emitted exactly once, well-formed and finite, and the checks pass.
func TestToyWorkloads(t *testing.T) {
	decl := loadBenchmarkJSON(t)
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, harness has %d", len(decl.Workloads), len(specs))
	}
	if len(decl.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, compare.go %d", len(decl.EndToEnd), len(endToEndDefs))
	}
	if len(decl.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, limit 128", len(decl.PerLayer))
	}
	for i, d := range decl.EndToEnd {
		def := endToEndDefs[i]
		better := "lower"
		if def.higher {
			better = "higher"
		}
		if d.Name != def.name || d.Better != better || d.Bound != def.bound {
			t.Errorf("end_to_end[%d] = %+v, compare.go has %+v", i, d, def)
		}
	}
	for i, sp := range specs {
		if decl.Workloads[i].Name != sp.name || decl.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %q / %q", i, decl.Workloads[i], sp.name, sp.why)
		}
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", sp.name)
		}
		sp := toy(sp)
		t.Run(sp.name, func(t *testing.T) {
			res, err := runWorkload(sp, 1, toySeconds(sp), true, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Checks {
				t.Errorf("failed check: %s", c)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			want := map[string]string{}
			for _, d := range decl.EndToEnd {
				want[d.Name] = d.Unit
			}
			checkEmitted(t, "end_to_end", want, res.EndToEnd, true)
			want = map[string]string{}
			for _, d := range decl.PerLayer {
				want[d.Name] = d.Unit
			}
			checkEmitted(t, "per_layer", want, res.PerLayer, false)
			line := resultLine(res, true)
			if !json.Valid([]byte(line)) || strings.Contains(line, "\n") {
				t.Errorf("result line is not one line of JSON: %s", line)
			}
		})
	}
}

func checkEmitted(t *testing.T, set string, want map[string]string, got []metric, nonZero bool) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		if seen[m.Name] {
			t.Errorf("%s: %s emitted twice", set, m.Name)
		}
		seen[m.Name] = true
		unit, ok := want[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s emitted but not declared in BENCHMARK.json", set, m.Name)
		case unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", set, m.Name, m.Unit, unit)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: malformed name or unit: %q %q", set, m.Name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (nonZero && m.Value == 0) {
			t.Errorf("%s: %s = %v", set, m.Name, m.Value)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: %s declared but not emitted", set, name)
		}
	}
}

// TestVirtualMetricsRepeat: the same seed gives the same virtual-time
// metrics and the same schedule; another seed gives another schedule.
func TestVirtualMetricsRepeat(t *testing.T) {
	sp := toy(*specByName("tatp_mix"))
	run := func(seed uint64) workloadResult {
		res, err := runWorkload(sp, seed, toySeconds(sp), true, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(1), run(1), run(2)
	if a.HostEvents != b.HostEvents {
		t.Errorf("same seed, host_events %d and %d", a.HostEvents, b.HostEvents)
	}
	if a.HostEvents == c.HostEvents {
		t.Errorf("seeds 1 and 2 both ran %d events", a.HostEvents)
	}
	for i, m := range a.EndToEnd {
		if m.Clock == "V" && m.Value != b.EndToEnd[i].Value {
			t.Errorf("same seed, %s = %v and %v", m.Name, m.Value, b.EndToEnd[i].Value)
		}
	}
}

// TestSharesPartition runs a window long enough for the 100 Hz CPU
// profiler to take samples and checks that the CPU and allocation buckets
// each partition their samples.
func TestSharesPartition(t *testing.T) {
	sp := toy(*specByName("tatp_mix"))
	res, err := runWorkload(sp, 1, 80/sp.vmsPerSec, false, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		t.Errorf("failed check: %s", c)
	}
	sums := map[string]float64{}
	for _, m := range res.PerLayer {
		if strings.HasSuffix(m.Name, "_share") {
			sums[m.Name[:strings.Index(m.Name, ".")]] += m.Value
		}
	}
	for _, kind := range []string{"cpu", "alloc"} {
		if math.Abs(sums[kind]-1) > 0.01 {
			t.Errorf("%s shares sum to %v, want 1", kind, sums[kind])
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		stack  []string
		bucket string
		malloc bool
	}{
		{[]string{"runtime.memmove", "runtime.mallocgc", "farm/internal/ring.(*Writer).Append", "farm/internal/core.(*Machine).writeRecord"}, "ring", true},
		{[]string{"farm/internal/tatp.(*Workload).Mix.func1", "farm/internal/loadgen.(*Generator).loop"}, "workload", false},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "gc", false},
		{[]string{"runtime.mallocgc", "main.(*recorder).start"}, "other", true},
		{[]string{"farm/internal/zk.(*Service).CAS"}, "other", false},
		{[]string{"farm/internal/proto.Register[...].func1", "farm/internal/core.(*Machine).dispatchMsg"}, "proto", false},
	} {
		if b, m := attribute(tc.stack); b != tc.bucket || m != tc.malloc {
			t.Errorf("attribute(%v) = %s, %v; want %s, %v", tc.stack, b, m, tc.bucket, tc.malloc)
		}
	}
}

// TestHistPercentiles holds the interpolated percentiles against exact
// order statistics.
func TestHistPercentiles(t *testing.T) {
	rng := sim.NewRand(3)
	var h hist
	var exact []float64
	for i := 0; i < 50000; i++ {
		v := sim.Time(rng.ExpFloat64()*20000) + sim.Time(rng.Intn(3))*100000
		h.record(v)
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	for _, p := range []float64{50, 90, 99, 99.9} {
		want := exact[int(p/100*float64(len(exact)))]
		if got := h.percentile(p); math.Abs(got-want) > 0.01*want {
			t.Errorf("p%v = %v, exact %v", p, got, want)
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, 129, 1000, 1 << 20, 1<<40 + 12345} {
		idx := bucketOf(v)
		if lo, width := bucketBounds(idx); v < lo || v >= lo+width || width*sub > 2*v+2*sub {
			t.Errorf("bucketOf(%d) = %d, whose bounds are [%d,+%d)", v, idx, lo, width)
		}
	}
}

func TestCompare(t *testing.T) {
	doc := func(vsec, wsec, spread float64) *document {
		return &document{Schema: schema, Workloads: []workloadResult{{Workload: "tatp_mix", Seed: 1,
			EndToEnd: []metric{{Name: "tx_per_vsec", Value: vsec, Clock: "V"}},
			PerLayer: []metric{{Name: "sim.tx_per_wsec", Value: wsec, Clock: "W", Spread: spread}},
		}}}
	}
	for _, tc := range []struct {
		name string
		b    *document
		code int
		want string
	}{
		{"same", doc(100, 50, 0.01), 0, "ok"},
		{"virtual metric moved", doc(101, 50, 0.01), 1, "DIFFERS"},
		{"wall metric regressed", doc(100, 30, 0.01), 1, "REGRESSED"},
		{"noisy input", doc(100, 49, 0.3), 0, "unresolved"},
	} {
		var out bytes.Buffer
		if code := compareDocuments(doc(100, 50, 0.01), tc.b, &out); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d and a %q row:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
