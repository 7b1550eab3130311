// Package perf is the simulator's performance trajectory, measured at two
// levels. Host-level: events per wall-second, simulated transactions per
// wall-second, allocations per event — how big a cluster the simulator
// can chew through. Protocol-level: committed-transaction latency
// percentiles (virtual time), fabric messages and wire bytes per
// committed transaction, abort rate — what the transport and commit
// pipeline actually cost — and, at two kill points, how soon a failure is
// recovered from, all measured deterministically so regressions are
// exact, not noise. cmd/farm-perf runs the suite, writes BENCH_sim.json,
// and checks the deterministic columns against the committed baseline so
// protocol regressions fail CI; the wall-clock columns are reported only.
//
// Simulated system throughput experiments (Figures 7–8 style sweeps)
// belong to internal/exper and EXPERIMENTS.md; this package measures the
// simulator and the protocol hot path, not the paper's cluster.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"farm/internal/exper"
	"farm/internal/sim"
)

// SchemaVersion identifies the BENCH_sim.json layout. v2 added the
// protocol-level columns (tx_p50_us, tx_p99_us, msgs_per_tx,
// wire_bytes_per_tx, abort_rate) and the bank workload points.
const SchemaVersion = "farm/bench-sim/v2"

// PointSpec describes one scale run: an exper load point ("tatp" or "bank"
// here) with all of every machine's threads active.
type PointSpec struct {
	Name string
	exper.Load
	// Kill makes the point a failure run (exper.RunFailure, 10 ms leases)
	// instead of a steady-state window: "backup" kills the non-CM machine
	// hosting the most regions (Figure 9), "cm" the configuration manager
	// (Figure 11). Warm is the load before the kill, Measure the run after.
	Kill string
}

// Point is one measured scale run, as serialized into BENCH_sim.json.
type Point struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Machines int    `json:"machines"`
	// ClientThreads is machines × threads × concurrency: the number of
	// closed-loop simulated clients driving load.
	ClientThreads int `json:"client_threads"`
	// SimulatedMS is the measured window of virtual time, in milliseconds.
	SimulatedMS float64 `json:"simulated_ms"`
	// WallSeconds is host time spent simulating the measured window
	// (setup and warmup excluded).
	WallSeconds float64 `json:"wall_seconds"`
	// HostEvents is the number of engine events executed in the window.
	HostEvents uint64 `json:"host_events"`
	// EventsPerSec is the headline simulator speed: engine events
	// executed per wall-clock second.
	EventsPerSec float64 `json:"events_per_sec"`
	// Committed is the number of transactions committed in the window.
	Committed uint64 `json:"committed"`
	// TxPerWallSec is simulated committed transactions per wall-second:
	// how much workload the simulator chews through in real time.
	TxPerWallSec float64 `json:"tx_per_wall_sec"`
	// SimTxPerSec is the simulated system's own throughput (committed
	// transactions per second of virtual time), for cross-checking
	// against internal/exper numbers.
	SimTxPerSec float64 `json:"sim_tx_per_sec"`
	// TxP50Us and TxP99Us are committed-transaction latency percentiles
	// in microseconds of virtual time, over the measure window. Virtual
	// time is deterministic: these regress exactly, never noisily.
	TxP50Us float64 `json:"tx_p50_us"`
	TxP99Us float64 `json:"tx_p99_us"`
	// MsgsPerTx is fabric sends per committed transaction over the
	// window (all traffic included — lease, heartbeat and recovery
	// overhead is part of the protocol's real cost).
	MsgsPerTx float64 `json:"msgs_per_tx"`
	// WireBytesPerTx is the modelled wire size of every fabric send, per
	// committed transaction over the window.
	WireBytesPerTx float64 `json:"wire_bytes_per_tx"`
	// AbortRate is aborted / (committed + aborted) over the window.
	AbortRate float64 `json:"abort_rate"`
	// AllocsPerEvent is heap allocations per engine event during the
	// window (workload allocations included, so it bounds the engine's
	// own cost from above).
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// HeapMB is the live heap after the run, in MiB.
	HeapMB float64 `json:"heap_mb"`
	// ConfigCommitMs and TputBackMs are a kill point's recovery, in virtual
	// milliseconds after the kill: when the CM committed the configuration
	// without the victim, and when throughput was back at 80 % of the
	// survivors' share (§6.4). Deterministic, like p99; only kill points
	// have them.
	ConfigCommitMs float64 `json:"config_commit_ms,omitempty"`
	TputBackMs     float64 `json:"tput_back_ms,omitempty"`
}

// Report is the BENCH_sim.json document.
type Report struct {
	Schema      string `json:"schema"`
	GoVersion   string `json:"go_version"`
	GeneratedBy string `json:"generated_by"`
	// PeakMachines is the largest cluster simulated in this report.
	PeakMachines int `json:"peak_machines"`
	// EngineAllocsPerEvent is the engine's own steady-state allocation
	// cost (schedule + dispatch of one event, measured in isolation with
	// testing.AllocsPerRun). The zero-alloc contract pins this at 0.
	EngineAllocsPerEvent float64 `json:"engine_allocs_per_event"`
	Points               []Point `json:"points"`
}

// DefaultSpecs is the committed trajectory: both workloads at the seed
// scale and the paper scales. Windows are sized so the full suite runs in
// a couple of minutes of host time.
func DefaultSpecs() []PointSpec {
	point := func(name, workload string, sc exper.Scale, warm, measure sim.Time, kill string) PointSpec {
		sc.Threads, sc.Seed = 8, 1
		return PointSpec{Name: name, Kill: kill, Load: exper.Load{Scale: sc, Workload: workload,
			Concurrency: 4, Warm: warm, Measure: measure}}
	}
	ms := sim.Millisecond
	return []PointSpec{
		point("tatp-9", "tatp", exper.Scale{Machines: 9, Subscribers: 2000, Regions: 6}, ms, 10*ms, ""),
		point("tatp-50", "tatp", exper.Scale{Machines: 50, Subscribers: 10000, Regions: 12}, ms, 4*ms, ""),
		point("tatp-100", "tatp", exper.Scale{Machines: 100, Subscribers: 10000, Regions: 12}, ms, 3*ms, ""),
		point("bank-9", "bank", exper.Scale{Machines: 9, Accounts: 4096, Regions: 6}, ms, 10*ms, ""),
		point("bank-50", "bank", exper.Scale{Machines: 50, Accounts: 12288, Regions: 12}, ms, 4*ms, ""),
		point("bank-100", "bank", exper.Scale{Machines: 100, Accounts: 12288, Regions: 12}, ms, 3*ms, ""),
		point("tatp-9-kill", "tatp", exper.Scale{Machines: 9, Subscribers: 2000, Regions: 6}, 20*ms, 60*ms, "backup"),
		point("tatp-9-cmkill", "tatp", exper.Scale{Machines: 9, Subscribers: 2000, Regions: 6}, 20*ms, 60*ms, "cm"),
	}
}

// Run executes one scale run and measures it.
func Run(s PointSpec) (Point, error) {
	if s.Kill != "" {
		return runKill(s)
	}
	set, err := s.SetUp()
	if err != nil {
		return Point{}, err
	}
	w := set.Drive()
	// The latency histogram records committed operations after the warm-up,
	// which is exactly the measured window.
	lat := set.G.Latency.Summarize()
	p := s.point(w.Wall)
	p.HostEvents, p.Committed = w.Events, w.Committed
	p.TxP50Us = float64(lat.P50) / float64(sim.Microsecond)
	p.TxP99Us = float64(lat.P99) / float64(sim.Microsecond)
	p.HeapMB = float64(w.HeapAlloc) / (1 << 20)
	if wall := p.WallSeconds; wall > 0 {
		p.EventsPerSec = float64(w.Events) / wall
		p.TxPerWallSec = float64(w.Committed) / wall
	}
	if s.Measure > 0 {
		p.SimTxPerSec = float64(w.Committed) / s.Measure.Seconds()
	}
	if cm := float64(w.Committed); cm > 0 {
		p.MsgsPerTx = float64(w.Net["msg_send"]) / cm
		p.WireBytesPerTx = float64(w.Net["msg_send_bytes"]) / cm
	}
	if w.Committed+w.Aborted > 0 {
		p.AbortRate = float64(w.Aborted) / float64(w.Committed+w.Aborted)
	}
	if w.Events > 0 {
		p.AllocsPerEvent = float64(w.Mallocs) / float64(w.Events)
	}
	return p, nil
}

// runKill measures a kill point's recovery: only the shape, the milestones
// and the wall time (of the whole run, set-up included) are filled in.
func runKill(s PointSpec) (Point, error) {
	kind, err := exper.ParseVictim(s.Kill)
	if err != nil {
		return Point{}, err
	}
	spec := exper.DefaultRecoverySpec(s.Scale)
	spec.Load, spec.Kind = s.Load, kind
	t0 := time.Now()
	run := exper.RunFailure(spec)
	commit, ok := run.Milestones["config-commit"]
	if !ok || run.FullThroughput < 0 {
		return Point{}, fmt.Errorf("no recovery within %v of the kill", s.Measure)
	}
	p := s.point(time.Since(t0))
	p.ConfigCommitMs, p.TputBackMs = commit.Millis(), run.FullThroughput.Millis()
	return p, nil
}

// point is the spec's shape and the wall time it took.
func (s PointSpec) point(wall time.Duration) Point {
	return Point{Name: s.Name, Workload: s.Workload, Machines: s.Machines,
		ClientThreads: s.Machines * s.Threads * s.Concurrency,
		SimulatedMS:   s.Measure.Millis(), WallSeconds: wall.Seconds()}
}

// EngineAllocsPerEvent measures the engine's own steady-state cost of one
// scheduled-and-dispatched event, in heap allocations.
func EngineAllocsPerEvent() float64 {
	e := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.After(sim.Time(i), fn)
	}
	e.Run()
	return testing.AllocsPerRun(1000, func() {
		e.After(10, fn)
		e.Step()
	})
}

// RunAll runs every spec and assembles the report. progress (may be nil)
// receives one line per completed point.
func RunAll(specs []PointSpec, progress func(string)) (*Report, error) {
	r := &Report{
		Schema:               SchemaVersion,
		GoVersion:            runtime.Version(),
		GeneratedBy:          "cmd/farm-perf",
		EngineAllocsPerEvent: EngineAllocsPerEvent(),
	}
	for _, s := range specs {
		p, err := Run(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		if p.Machines > r.PeakMachines {
			r.PeakMachines = p.Machines
		}
		r.Points = append(r.Points, p)
		switch {
		case progress == nil:
		case p.ConfigCommitMs > 0:
			progress(fmt.Sprintf("%-13s %3dm  config-commit %6.2fms  throughput back %6.2fms after the kill  %.1fs wall",
				p.Name, p.Machines, p.ConfigCommitMs, p.TputBackMs, p.WallSeconds))
		default:
			progress(fmt.Sprintf("%-9s %3dm %8.0f ev/s  p50 %6.1fµs  p99 %7.1fµs  %5.2f msg/tx  %6.0f B/tx  %4.1f%% abort  %.1fs wall",
				p.Name, p.Machines, p.EventsPerSec, p.TxP50Us, p.TxP99Us,
				p.MsgsPerTx, p.WireBytesPerTx, p.AbortRate*100, p.WallSeconds))
		}
	}
	return r, nil
}

// WriteFile serializes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads a BENCH_sim.json document.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Point returns the named point, or nil.
func (r *Report) Point(name string) *Point {
	for i := range r.Points {
		if r.Points[i].Name == name {
			return &r.Points[i]
		}
	}
	return nil
}

// Compare checks got against a committed baseline: every baseline point
// must be present, and the protocol-level metrics — committed-tx p99,
// messages per transaction, and a kill point's config-commit and
// throughput-back times — must not grow by more than exact (0.10 =
// 10%). They are deterministic functions of the simulation and regress
// bit-exactly, so the gate never fires on host noise. Events/sec is
// reported, not gated: it is a wall-clock measure that swings with host
// load, and a wall-time claim needs paired runs of both binaries instead.
// A baseline whose protocol field is zero (a v1 report, or a window with no
// commits) skips that gate. The engine's zero-alloc contract is also
// enforced here. It returns a list of human-readable violations, empty when
// the report passes.
func Compare(baseline, got *Report, exact float64) []string {
	var bad []string
	if got.EngineAllocsPerEvent > 0 {
		bad = append(bad, fmt.Sprintf(
			"engine steady-state allocs/event = %.2f, want 0", got.EngineAllocsPerEvent))
	}
	byName := make(map[string]Point, len(got.Points))
	for _, p := range got.Points {
		byName[p.Name] = p
	}
	for _, b := range baseline.Points {
		g, ok := byName[b.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("point %q missing from new report", b.Name))
			continue
		}
		if b.TxP99Us > 0 {
			if ceil := b.TxP99Us * (1 + exact); g.TxP99Us > ceil {
				bad = append(bad, fmt.Sprintf(
					"%s: committed-tx p99 %.1fµs is a >%.0f%% regression from baseline %.1fµs",
					b.Name, g.TxP99Us, exact*100, b.TxP99Us))
			}
		}
		if b.MsgsPerTx > 0 {
			if ceil := b.MsgsPerTx * (1 + exact); g.MsgsPerTx > ceil {
				bad = append(bad, fmt.Sprintf(
					"%s: %.2f msgs/tx is a >%.0f%% regression from baseline %.2f",
					b.Name, g.MsgsPerTx, exact*100, b.MsgsPerTx))
			}
		}
		for _, r := range []struct {
			what      string
			base, got float64
		}{{"config-commit", b.ConfigCommitMs, g.ConfigCommitMs}, {"throughput back", b.TputBackMs, g.TputBackMs}} {
			if r.base > 0 && r.got > r.base*(1+exact) {
				bad = append(bad, fmt.Sprintf("%s: %s %.2fms after the kill is a >%.0f%% regression from baseline %.2fms",
					b.Name, r.what, r.got, exact*100, r.base))
			}
		}
	}
	return bad
}
