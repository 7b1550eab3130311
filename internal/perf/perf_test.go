package perf

import (
	"path/filepath"
	"reflect"
	"testing"

	"farm/internal/sim"
)

// TestScale100TATP is the headline scale gate: a 100-machine TATP cluster
// with 3200 closed-loop clients must set up, warm, and chew through a
// measured window without stalling — inside the ordinary test suite, not
// just the perf harness. The window is shorter than farm-perf's (this is
// a completion gate, not a measurement), and the run is skipped under the
// race detector: the simulator is single-goroutine, so race instrumenting
// a 100-machine run buys nothing except a many-fold slowdown.
func TestScale100TATP(t *testing.T) {
	if raceEnabled {
		t.Skip("100-machine scale run under -race: no concurrency to check, only slowdown")
	}
	if testing.Short() {
		t.Skip("100-machine scale run skipped in -short mode")
	}
	spec := PointSpec{Name: "tatp-100", Machines: 100, Threads: 8, Concurrency: 4,
		Subscribers: 10000, Regions: 12, Warm: sim.Millisecond, Measure: 2 * sim.Millisecond, Seed: 1}
	p, err := Run(spec)
	if err != nil {
		t.Fatalf("100-machine TATP run failed: %v", err)
	}
	if p.Machines != 100 || p.ClientThreads != 100*8*4 {
		t.Fatalf("spec not honored: %+v", p)
	}
	if p.Committed == 0 {
		t.Fatalf("100-machine cluster committed nothing: %+v", p)
	}
	if p.HostEvents == 0 || p.EventsPerSec <= 0 {
		t.Fatalf("no events measured: %+v", p)
	}
	t.Logf("tatp-100: %.0f events/sec, %d committed, %.2f allocs/event, %.1fs wall",
		p.EventsPerSec, p.Committed, p.AllocsPerEvent, p.WallSeconds)
}

// TestEngineAllocsPerEventIsZero pins the zero-alloc contract at the
// harness's own measurement point, so a regression fails `go test` even
// when nobody runs farm-perf.
func TestEngineAllocsPerEventIsZero(t *testing.T) {
	if got := EngineAllocsPerEvent(); got != 0 {
		t.Fatalf("engine steady-state allocs/event = %v, want 0", got)
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := &Report{
		Schema:       SchemaVersion,
		GoVersion:    "go1.24.0",
		GeneratedBy:  "test",
		PeakMachines: 100,
		Points: []Point{{
			Name: "tatp-9", Workload: "tatp", Machines: 9, ClientThreads: 288,
			SimulatedMS: 10, WallSeconds: 1.5, HostEvents: 1e6,
			EventsPerSec: 666666, Committed: 1234, TxPerWallSec: 822.7,
			SimTxPerSec: 123400, AllocsPerEvent: 2.5, HeapMB: 64,
		}},
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip changed report:\n  wrote %+v\n  read  %+v", r, got)
	}
}

func TestCompare(t *testing.T) {
	base := &Report{Points: []Point{
		{Name: "a", EventsPerSec: 1000},
		{Name: "b", EventsPerSec: 500},
	}}
	// Events/sec is wall-clock: reported, never gated, however far it moves.
	slower := &Report{Points: []Point{
		{Name: "a", EventsPerSec: 100},
		{Name: "b", EventsPerSec: 800},
	}}
	if bad := Compare(base, slower, 0.10); len(bad) != 0 {
		t.Fatalf("a wall-clock move was flagged: %v", bad)
	}

	missing := &Report{Points: []Point{{Name: "a", EventsPerSec: 1000}}}
	if bad := Compare(base, missing, 0.10); len(bad) != 1 {
		t.Fatalf("want exactly the missing-b violation, got: %v", bad)
	}

	// The zero-alloc contract is enforced regardless of speed.
	leaky := &Report{EngineAllocsPerEvent: 0.5, Points: base.Points}
	if bad := Compare(base, leaky, 0.10); len(bad) != 1 {
		t.Fatalf("want exactly the allocs violation, got: %v", bad)
	}
}

// TestCompareProtocolGates exercises the v2 gates: committed-tx p99 and
// msgs/tx regress against ceilings, and a v1 baseline (zero fields)
// skips them instead of flagging every fresh report.
func TestCompareProtocolGates(t *testing.T) {
	base := &Report{Points: []Point{
		{Name: "a", EventsPerSec: 1000, TxP99Us: 100, MsgsPerTx: 4.0},
	}}
	ok := &Report{Points: []Point{
		{Name: "a", EventsPerSec: 1000, TxP99Us: 105, MsgsPerTx: 4.2}, // +5%: inside
	}}
	if bad := Compare(base, ok, 0.10); len(bad) != 0 {
		t.Fatalf("clean report flagged: %v", bad)
	}
	slow := &Report{Points: []Point{
		{Name: "a", EventsPerSec: 1000, TxP99Us: 120, MsgsPerTx: 4.0}, // p99 +20%
	}}
	if bad := Compare(base, slow, 0.10); len(bad) != 1 {
		t.Fatalf("want exactly the p99 violation, got: %v", bad)
	}
	chatty := &Report{Points: []Point{
		{Name: "a", EventsPerSec: 1000, TxP99Us: 100, MsgsPerTx: 5.0}, // msgs/tx +25%
	}}
	if bad := Compare(base, chatty, 0.10); len(bad) != 1 {
		t.Fatalf("want exactly the msgs/tx violation, got: %v", bad)
	}
	// A v1 baseline has no protocol fields: both gates must skip.
	v1 := &Report{Points: []Point{{Name: "a", EventsPerSec: 1000}}}
	if bad := Compare(v1, chatty, 0.10); len(bad) != 0 {
		t.Fatalf("v1 baseline fired protocol gates: %v", bad)
	}
}

// TestCompareRecoveryGates: a kill point's config-commit and throughput-back
// times are gated like p99, and a steady-state point, which has neither,
// skips both.
func TestCompareRecoveryGates(t *testing.T) {
	base := &Report{Points: []Point{
		{Name: "kill", ConfigCommitMs: 12, TputBackMs: 13},
		{Name: "steady", TxP99Us: 100},
	}}
	ok := &Report{Points: []Point{
		{Name: "kill", ConfigCommitMs: 13, TputBackMs: 14}, // +8%: inside
		{Name: "steady", TxP99Us: 100},
	}}
	if bad := Compare(base, ok, 0.10); len(bad) != 0 {
		t.Fatalf("clean report flagged: %v", bad)
	}
	slow := &Report{Points: []Point{
		{Name: "kill", ConfigCommitMs: 22, TputBackMs: 23}, // a lease wait back
		{Name: "steady", TxP99Us: 100},
	}}
	if bad := Compare(base, slow, 0.10); len(bad) != 2 {
		t.Fatalf("want the config-commit and throughput-back violations, got: %v", bad)
	}
}

// TestBankPointRuns is the completion gate for the bank workload in the
// perf harness: a small bank point must set up, measure, and report
// non-zero protocol metrics.
func TestBankPointRuns(t *testing.T) {
	spec := PointSpec{Name: "bank-tiny", Workload: "bank", Machines: 5, Threads: 2, Concurrency: 2,
		Accounts: 256, Regions: 3, Warm: sim.Millisecond, Measure: 2 * sim.Millisecond, Seed: 1}
	p, err := Run(spec)
	if err != nil {
		t.Fatalf("bank point failed: %v", err)
	}
	if p.Committed == 0 || p.TxP99Us <= 0 || p.MsgsPerTx <= 0 || p.WireBytesPerTx <= 0 {
		t.Fatalf("bank point missing protocol metrics: %+v", p)
	}
	t.Logf("bank-tiny: %d committed, p50 %.1fµs p99 %.1fµs, %.2f msgs/tx",
		p.Committed, p.TxP50Us, p.TxP99Us, p.MsgsPerTx)
}
