package farm

// One benchmark per table/figure of the paper's evaluation. Each runs the
// corresponding experiment from internal/exper at a scaled configuration
// and reports the reproduced quantities via b.ReportMetric, so
// `go test -bench . -benchmem` regenerates every result in one sweep
// (cmd/farm-bench prints the same data as full tables).
//
// All reported times/rates are *simulated*: ns/op measures the host cost
// of running the simulation and is not a FaRM metric.

import (
	"testing"

	"farm/internal/baseline"
	"farm/internal/core"
	"farm/internal/exper"
	"farm/internal/proto"
	"farm/internal/sim"
)

func benchScale() exper.Scale {
	return exper.Scale{Machines: 6, Threads: 6, Subscribers: 800, Warehouses: 12, Regions: 4, Seed: 1}
}

// BenchmarkFigure1_NVRAMEnergy reproduces Figure 1: Joules per GB saved to
// 1–4 SSDs on power failure.
func BenchmarkFigure1_NVRAMEnergy(b *testing.B) {
	var rows []exper.Fig1Row
	for i := 0; i < b.N; i++ {
		rows = exper.Figure1()
	}
	for _, r := range rows {
		b.ReportMetric(r.JoulesPerGB, "J/GB-"+itoa(r.SSDs)+"ssd")
	}
}

// BenchmarkFigure2_RDMAvsRPC reproduces Figure 2 at 64-byte transfers:
// one-sided reads vs RPC, ops/µs/machine.
func BenchmarkFigure2_RDMAvsRPC(b *testing.B) {
	var res baseline.ReadBenchResult
	for i := 0; i < b.N; i++ {
		cfg := baseline.DefaultReadBench()
		cfg.Machines = 6
		cfg.Threads = 10
		res = baseline.RunReadBench(cfg, 64, 2*sim.Millisecond)
	}
	b.ReportMetric(res.RDMA, "rdma-ops/µs/machine")
	b.ReportMetric(res.RPC, "rpc-ops/µs/machine")
	b.ReportMetric(res.RDMA/res.RPC, "ratio")
}

// BenchmarkCommitProtocol measures one distributed update's commit (§4 /
// Figure 4 path) end to end in simulated time and verifies its one-sided
// op budget Pw(f+3).
func BenchmarkCommitProtocol(b *testing.B) {
	c := NewCluster(Options{NumMachines: 6, Seed: 2})
	c.MustCreateRegions(2)
	m := c.Machine(1)
	var addr Addr
	if err := c.Sync(func(done func(error)) {
		tx := m.Begin(0)
		tx.Alloc(8, []byte("dddddddd"), nil, func(a Addr, err error) {
			addr = a
			tx.Commit(done)
		})
	}); err != nil {
		b.Fatal(err)
	}
	var total Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := c.Now()
		if err := c.Sync(func(done func(error)) {
			tx := m.Begin(0)
			tx.Read(addr, 8, func(_ []byte, err error) {
				if err != nil {
					done(err)
					return
				}
				tx.Write(addr, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7})
				tx.Commit(done)
			})
		}); err != nil {
			b.Fatal(err)
		}
		total += c.Now() - start
	}
	b.ReportMetric(float64(total)/float64(b.N)/1000, "simulated-µs/commit")
}

// BenchmarkTable1RecordEncoding round-trips a Table 1 log record (the bytes
// written into NVRAM ring buffers) the way the commit path does: size it
// with proto.RecordSize, encode in place with proto.AppendRecord, decode
// with proto.DecodeRecord. internal/proto has the per-direction
// micro-benchmarks.
func BenchmarkTable1RecordEncoding(b *testing.B) {
	rec := &proto.Record{
		Type:    proto.RecLock,
		Tx:      proto.TxID{Config: 1, Machine: 2, Thread: 3, Local: 4},
		Regions: []uint32{1, 2},
		Writes: []proto.ObjectWrite{
			{Addr: proto.Addr{Region: 1, Off: 64}, Version: 9, Allocated: true, Value: make([]byte, 40)},
		},
		TruncIDs: []uint64{1, 2, 3},
	}
	buf := make([]byte, 0, proto.RecordSize(rec))
	var out proto.Record
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = proto.AppendRecord(buf[:0], rec)
		if err := proto.DecodeRecord(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7_TATP runs the TATP mix at one high-load point.
func BenchmarkFigure7_TATP(b *testing.B) {
	var p exper.CurvePoint
	for i := 0; i < b.N; i++ {
		pts := exper.Figure7(benchScale(), [][2]int{{6, 4}}, 3*sim.Millisecond, 20*sim.Millisecond)
		p = pts[0]
	}
	b.ReportMetric(p.Tput, "txn/s")
	b.ReportMetric(p.PerMachine, "txn/s/machine")
	b.ReportMetric(p.Median.Micros(), "median-µs")
	b.ReportMetric(p.P99.Micros(), "p99-µs")
}

// BenchmarkFigure8_TPCC runs the TPC-C mix, reporting new-order rates.
func BenchmarkFigure8_TPCC(b *testing.B) {
	var p exper.CurvePoint
	for i := 0; i < b.N; i++ {
		pts := exper.Figure8(benchScale(), [][2]int{{4, 1}}, 3*sim.Millisecond, 25*sim.Millisecond)
		p = pts[0]
	}
	b.ReportMetric(p.Tput, "neworders/s")
	b.ReportMetric(p.Median.Micros(), "median-µs")
	b.ReportMetric(p.P99.Micros(), "p99-µs")
}

// BenchmarkReadPerformance reproduces §6.3's lookup workload.
func BenchmarkReadPerformance(b *testing.B) {
	var p exper.CurvePoint
	for i := 0; i < b.N; i++ {
		p = exper.KVReadPerformance(benchScale(), 2*sim.Millisecond, 15*sim.Millisecond)
	}
	b.ReportMetric(p.Tput, "lookups/s")
	b.ReportMetric(p.Median.Micros(), "median-µs")
	b.ReportMetric(p.P99.Micros(), "p99-µs")
}

func failureBench(b *testing.B, kind exper.FailureKind, workload string, aggressive bool) {
	var run exper.RecoveryRun
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		sc.Seed = uint64(i) + 1
		spec := exper.DefaultRecoverySpec(sc)
		spec.Kind = kind
		spec.Workload = workload
		spec.Aggressive = aggressive
		spec.Lease = 5 * sim.Millisecond
		spec.WarmFor = 30 * sim.Millisecond
		spec.RunFor = 400 * sim.Millisecond
		if kind == exper.KillCM {
			spec.RunFor = 600 * sim.Millisecond
		}
		run = exper.RunFailure(spec)
		if run.FullThroughput < 0 {
			b.Fatal("throughput never recovered")
		}
	}
	b.ReportMetric(run.FullThroughput.Millis(), "recovery-ms")
	if run.DataRecoveryDone > 0 {
		b.ReportMetric(run.DataRecoveryDone.Millis(), "datarec-ms")
	}
	b.ReportMetric(float64(run.RecoveringTxs), "recovering-txns")
}

// BenchmarkFigure9_TATPFailure: kill one machine under TATP.
func BenchmarkFigure9_TATPFailure(b *testing.B) { failureBench(b, exper.KillBackup, "tatp", false) }

// BenchmarkFigure10_TPCCFailure: kill one machine under TPC-C.
func BenchmarkFigure10_TPCCFailure(b *testing.B) { failureBench(b, exper.KillBackup, "tpcc", false) }

// BenchmarkFigure11_CMFailure: kill the configuration manager.
func BenchmarkFigure11_CMFailure(b *testing.B) { failureBench(b, exper.KillCM, "tatp", false) }

// BenchmarkFigure12_RecoveryDistribution: repeated failures, recovery-time
// percentiles.
func BenchmarkFigure12_RecoveryDistribution(b *testing.B) {
	var d []float64
	for i := 0; i < b.N; i++ {
		d = exper.RecoveryDistribution(benchScale(), 5, 5*sim.Millisecond)
	}
	b.ReportMetric(exper.Percentile(d, 50), "p50-ms")
	b.ReportMetric(exper.Percentile(d, 100), "max-ms")
}

// BenchmarkFigure13_CorrelatedFailure: kill a whole failure domain.
func BenchmarkFigure13_CorrelatedFailure(b *testing.B) {
	var run exper.RecoveryRun
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		sc.Machines = 9
		spec := exper.DefaultRecoverySpec(sc)
		spec.Kind = exper.KillDomain
		spec.Lease = 5 * sim.Millisecond
		spec.RunFor = 800 * sim.Millisecond
		run = exper.RunFailure(spec)
	}
	b.ReportMetric(float64(len(run.Victims)), "machines-killed")
	b.ReportMetric(run.FullThroughput.Millis(), "recovery-ms")
	b.ReportMetric(float64(run.RecoveringTxs), "recovering-txns")
}

// BenchmarkFigure14_AggressiveRecovery: TATP with 4×32 KB fetches.
func BenchmarkFigure14_AggressiveRecovery(b *testing.B) {
	failureBench(b, exper.KillBackup, "tatp", true)
}

// BenchmarkFigure15_TPCCAggressiveRecovery: TPC-C with 4×32 KB fetches.
func BenchmarkFigure15_TPCCAggressiveRecovery(b *testing.B) {
	failureBench(b, exper.KillBackup, "tpcc", true)
}

// BenchmarkFigure16_LeaseManagers measures false-positive expiries for the
// best and worst lease managers at a 5 ms lease.
func BenchmarkFigure16_LeaseManagers(b *testing.B) {
	var cells []exper.Fig16Cell
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		sc.Machines = 5
		sc.Threads = 2
		cells = exper.Figure16(sc, []sim.Time{5 * sim.Millisecond}, 1500*sim.Millisecond)
	}
	for _, c := range cells {
		b.ReportMetric(c.Expiries, c.Variant.String()+"-expiries/10min")
	}
}

// BenchmarkAblationProtocols compares commit message budgets: FaRM
// SOSP'15, FaRM NSDI'14, and Spanner-style 2PC/Paxos (§4, §7).
func BenchmarkAblationProtocols(b *testing.B) {
	var sp baseline.SpannerResult
	for i := 0; i < b.N; i++ {
		sp = baseline.MeasureSpannerCommit(baseline.DefaultSpanner(), 2)
	}
	b.ReportMetric(float64(baseline.FaRMWritesFormula(2, 1)), "farm-writes")
	b.ReportMetric(float64(baseline.NSDI14MessagesFormula(2, 1)), "nsdi14-msgs")
	b.ReportMetric(float64(sp.Messages), "spanner-msgs")
	b.ReportMetric(sp.Latency.Micros(), "spanner-µs")
}

// BenchmarkCrossoverSingleMachine compares a Silo-style single-machine
// engine with a small FaRM cluster on a similar read/write mix (§6.3's
// "outperforms Hekaton with just three machines" crossover).
func BenchmarkCrossoverSingleMachine(b *testing.B) {
	var silo float64
	var cluster exper.CurvePoint
	for i := 0; i < b.N; i++ {
		s := baseline.NewSilo(baseline.DefaultSilo(6), 2000)
		silo = s.RunUniform(3, 1, 30*sim.Millisecond)
		sc := benchScale()
		sc.Machines = 3
		pts := exper.Figure7(sc, [][2]int{{6, 4}}, 3*sim.Millisecond, 20*sim.Millisecond)
		cluster = pts[0]
	}
	b.ReportMetric(silo, "silo-txn/s")
	b.ReportMetric(cluster.Tput, "farm3-txn/s")
	b.ReportMetric(cluster.Tput/silo, "farm3/silo")
}

// BenchmarkSimulatorEventRate measures the substrate itself: host-side
// events per second the discrete-event engine sustains (capacity planning
// for bigger experiments).
func BenchmarkSimulatorEventRate(b *testing.B) {
	c := core.New(core.Options{NumMachines: 6, Seed: 9})
	if _, err := c.CreateRegions(0, 2, 0); err != nil {
		b.Fatal(err)
	}
	before := c.Eng.Executed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RunFor(sim.Millisecond)
	}
	b.ReportMetric(float64(c.Eng.Executed()-before)/float64(b.N), "events/simulated-ms")
}

func itoa(v int) string { return string(rune('0' + v)) }

// BenchmarkAblationValidation: the tr threshold trade-off (§4 step 2).
func BenchmarkAblationValidation(b *testing.B) {
	var rows []exper.AblationRow
	for i := 0; i < b.N; i++ {
		rows = exper.AblationValidation(benchScale(), 2*sim.Millisecond, 10*sim.Millisecond)
	}
	b.ReportMetric(rows[0].Median.Micros(), "rpc-validation-µs")
	b.ReportMetric(rows[2].Median.Micros(), "rdma-validation-µs")
}

// BenchmarkAblationLocality: TPC-C co-partitioning benefit (§6.2).
func BenchmarkAblationLocality(b *testing.B) {
	var rows []exper.AblationRow
	for i := 0; i < b.N; i++ {
		rows = exper.AblationLocality(benchScale(), 3*sim.Millisecond, 20*sim.Millisecond)
	}
	b.ReportMetric(rows[0].Tput, "copartitioned-neworders/s")
	b.ReportMetric(rows[1].Tput, "random-neworders/s")
}

// BenchmarkAblationLeaseDetection: lease duration vs detection delay (§5.1).
func BenchmarkAblationLeaseDetection(b *testing.B) {
	var rows []exper.AblationRow
	for i := 0; i < b.N; i++ {
		rows = exper.AblationLeaseDuration(benchScale(),
			[]sim.Time{2 * sim.Millisecond, 10 * sim.Millisecond})
	}
	b.ReportMetric(rows[0].Median.Millis(), "detect-ms-2ms-lease")
	b.ReportMetric(rows[1].Median.Millis(), "detect-ms-10ms-lease")
}

// BenchmarkPowerFailureRecovery: whole-cluster power cycle durability
// (§2.1/§5): committed data must be served again after restoration.
func BenchmarkPowerFailureRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := NewCluster(Options{NumMachines: 6, Seed: uint64(i) + 1, LeaseDuration: 5 * Millisecond})
		c.MustCreateRegions(3)
		var addr Addr
		if err := c.Sync(func(done func(error)) {
			tx := c.Machine(1).Begin(0)
			tx.Alloc(8, []byte("dur-data"), nil, func(a Addr, err error) {
				addr = a
				tx.Commit(done)
			})
		}); err != nil {
			b.Fatal(err)
		}
		c.PowerCycle(100 * Millisecond)
		c.RunFor(400 * Millisecond)
		var got []byte
		if err := c.Sync(func(done func(error)) {
			tx := c.Machine(2).Begin(0)
			tx.Read(addr, 8, func(data []byte, err error) {
				got = data
				done(err)
			})
		}); err != nil || string(got) != "dur-data" {
			b.Fatalf("data lost across power cycle: %q %v", got, err)
		}
	}
	b.ReportMetric(1, "durability")
}
