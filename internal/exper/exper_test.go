package exper

import (
	"testing"

	"farm/internal/sim"
)

// smallScale keeps test runtimes short.
func smallScale() Scale {
	return Scale{Machines: 6, Threads: 4, Subscribers: 400, Warehouses: 8, Regions: 4, Seed: 3}
}

func TestFigure1Shape(t *testing.T) {
	rows := Figure1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].JoulesPerGB < 100 || rows[0].JoulesPerGB > 120 {
		t.Fatalf("1-SSD energy %v, paper ~110 J/GB", rows[0].JoulesPerGB)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].JoulesPerGB >= rows[i-1].JoulesPerGB {
			t.Fatal("energy not decreasing with SSDs")
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	rows := Figure2(4, 8, 2*sim.Millisecond)
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	// RDMA beats RPC everywhere; small-transfer gap ≈ 4x.
	for _, r := range rows {
		if r.RDMA <= r.RPC {
			t.Fatalf("size %d: rdma %.2f <= rpc %.2f", r.Size, r.RDMA, r.RPC)
		}
	}
	gap := rows[0].RDMA / rows[0].RPC
	if gap < 2.5 {
		t.Fatalf("small-transfer gap %.1f, want ≳ 3", gap)
	}
	// Throughput decreases with size.
	if rows[len(rows)-1].RDMA >= rows[0].RDMA {
		t.Fatal("RDMA rate should fall with transfer size")
	}
}

func TestFigure7Point(t *testing.T) {
	pts := Figure7(smallScale(), [][2]int{{4, 2}}, 3*sim.Millisecond, 15*sim.Millisecond)
	if len(pts) != 1 {
		t.Fatal("points")
	}
	p := pts[0]
	if p.Tput < 100000 {
		t.Fatalf("TATP tput %.0f too low", p.Tput)
	}
	if p.Median <= 0 || p.P99 < p.Median {
		t.Fatalf("latency: %v %v", p.Median, p.P99)
	}
}

func TestFigure8Point(t *testing.T) {
	pts := Figure8(smallScale(), [][2]int{{2, 1}}, 3*sim.Millisecond, 20*sim.Millisecond)
	p := pts[0]
	if p.Tput < 1000 {
		t.Fatalf("TPC-C new-order tput %.0f too low", p.Tput)
	}
	// TPC-C latency must exceed TATP's (hundreds of µs vs tens).
	if p.Median < 20*sim.Microsecond {
		t.Fatalf("TPC-C median %v suspiciously low", p.Median)
	}
}

func TestKVReadPerformance(t *testing.T) {
	p := KVReadPerformance(smallScale(), 2*sim.Millisecond, 10*sim.Millisecond)
	if p.Tput < 200000 {
		t.Fatalf("lookup tput %.0f too low", p.Tput)
	}
	if p.Median > 100*sim.Microsecond {
		t.Fatalf("lookup median %v too high", p.Median)
	}
}

func TestFigure9Run(t *testing.T) {
	spec := DefaultRecoverySpec(smallScale())
	spec.Lease = 5 * sim.Millisecond
	run := RunFailure(spec)
	if run.PreTput <= 0 {
		t.Fatal("no pre-failure throughput")
	}
	if run.FullThroughput < 0 {
		t.Fatal("throughput never recovered")
	}
	// The headline: recovery within tens of ms (≤100 ms here).
	if run.FullThroughput > 100*sim.Millisecond {
		t.Fatalf("recovery took %v", run.FullThroughput)
	}
	if _, ok := run.Milestones["config-commit"]; !ok {
		t.Fatal("missing config-commit milestone")
	}
	if len(run.RegionsRecovered) == 0 {
		t.Fatal("no regions re-replicated")
	}
	t.Logf("recovery: %v, data recovery done +%v, recovering txs %d",
		run.FullThroughput, run.DataRecoveryDone, run.RecoveringTxs)
}

func TestFigure11CMFailure(t *testing.T) {
	spec := DefaultRecoverySpec(smallScale())
	spec.Kind = KillCM
	spec.Lease = 5 * sim.Millisecond
	spec.Measure = 600 * sim.Millisecond
	run := RunFailure(spec)
	if run.FullThroughput < 0 {
		t.Fatal("throughput never recovered after CM failure")
	}
	// CM recovery is slower than non-CM (Figure 11 vs 9): expect more
	// than the plain-backup case due to backup-CM takeover + CM state
	// rebuild, but still well under a second.
	if run.FullThroughput > 300*sim.Millisecond {
		t.Fatalf("CM recovery took %v", run.FullThroughput)
	}
	t.Logf("CM failure recovery: %v", run.FullThroughput)
}

func TestFigure12Distribution(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	d := RecoveryDistribution(smallScale(), 4, 5*sim.Millisecond)
	if len(d) != 4 {
		t.Fatal("runs")
	}
	med := Percentile(d, 50)
	if med <= 0 || med > 150 {
		t.Fatalf("median recovery %v ms", med)
	}
	t.Logf("recovery distribution (ms): %v", d)
}

func TestFigure16LeaseShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	sc := smallScale()
	sc.Threads = 2
	cells := Figure16(sc, []sim.Time{5 * sim.Millisecond, 100 * sim.Millisecond}, 500*sim.Millisecond)
	byKey := map[string]float64{}
	for _, c := range cells {
		byKey[c.Variant.String()+c.Duration.String()] = c.Expiries
	}
	// The shipping configuration admits 5 ms leases with no false
	// positives; RPC at 100 ms must show many.
	if byKey["UD+thread+pri5.000ms"] > 0 {
		t.Fatalf("UD+thread+pri at 5ms: %v expiries", byKey["UD+thread+pri5.000ms"])
	}
	if byKey["RPC100.000ms"] == 0 {
		t.Fatal("RPC at 100ms shows no expiries")
	}
	// UD+thread is clean at 100 ms but not at 5 ms.
	if byKey["UD+thread100.000ms"] > 0 {
		t.Fatalf("UD+thread at 100ms: %v", byKey["UD+thread100.000ms"])
	}
	if byKey["UD+thread5.000ms"] == 0 {
		t.Fatal("UD+thread at 5ms should show expiries")
	}
}

func TestAblationValidation(t *testing.T) {
	rows := AblationValidation(smallScale(), 2*sim.Millisecond, 10*sim.Millisecond)
	if len(rows) != 3 {
		t.Fatal("rows")
	}
	for _, r := range rows {
		if r.Tput <= 0 {
			t.Fatalf("%s: no throughput", r.Setting)
		}
	}
	// For a 12-object read set at one primary, one validation RPC beats
	// twelve sequential one-sided reads — the reason tr exists (§4).
	if rows[0].Median >= rows[2].Median {
		t.Fatalf("RPC validation median %v should beat RDMA-only %v for large read sets",
			rows[0].Median, rows[2].Median)
	}
}

func TestAblationLocality(t *testing.T) {
	sc := smallScale()
	rows := AblationLocality(sc, 3*sim.Millisecond, 15*sim.Millisecond)
	co, rand := rows[0], rows[1]
	if co.Tput <= 0 || rand.Tput <= 0 {
		t.Fatal("no throughput")
	}
	// Random warehouse selection must commit fewer new orders per second
	// (remote rows, remote indexes on every access).
	if rand.Tput >= co.Tput {
		t.Fatalf("locality gave no benefit: co=%.0f rand=%.0f", co.Tput, rand.Tput)
	}
}

func TestAblationLeaseDuration(t *testing.T) {
	rows := AblationLeaseDuration(smallScale(), []sim.Time{2 * sim.Millisecond, 20 * sim.Millisecond})
	if len(rows) != 2 {
		t.Fatal("rows")
	}
	// Detection delay scales with lease duration.
	if rows[1].Median <= rows[0].Median {
		t.Fatalf("detection: lease 20ms %v should exceed lease 2ms %v", rows[1].Median, rows[0].Median)
	}
}
