package exper

import (
	"fmt"
	"strings"

	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/proto"
	"farm/internal/sim"
)

// This file contains ablations of the design choices DESIGN.md calls out:
// validation transport (RDMA vs RPC, the tr threshold of §4), TPC-C
// locality (co-partitioning, §6.2), lease duration vs detection delay
// (§5.1), and data-recovery pacing (§5.4 / Figures 9 vs 14).

// AblationRow is one (setting, metrics) pair.
type AblationRow struct {
	Setting string
	Tput    float64
	Median  sim.Time
	P99     sim.Time
	Extra   string
}

// FormatAblation renders ablation rows.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %14s %12s %12s  %s\n", "setting", "tput(op/s)", "median", "p99", "notes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %14.0f %12v %12v  %s\n", r.Setting, r.Tput, r.Median, r.P99, r.Extra)
	}
	return b.String()
}

// AblationValidation isolates the tr trade-off of §4 step 2: a read-only
// transaction that reads many objects from ONE remote primary validates
// either with one one-sided read per object (tr high) or a single RPC
// carrying the whole read set (tr low). The paper sets tr = 4 because "the
// threshold reflects the CPU cost of an RPC relative to an RDMA read":
// past a few objects, one RPC beats many reads.
func AblationValidation(sc Scale, warm, measure sim.Time) []AblationRow {
	const objects = 12
	var rows []AblationRow
	for _, tr := range []int{1, 4, 1 << 20} {
		opts := sc.options()
		opts.ValidateRPCThreshold = tr
		c := core.New(opts)
		regions, err := c.CreateRegions(0, 1, 0)
		if err != nil {
			panic(err)
		}
		region := regions[0]
		// Allocate the objects in the single region.
		var addrs []proto.Addr
		hint := proto.Addr{Region: region}
		err = loadgen.RunSync(c, c.Machine(0), 0, func(tx *core.Tx, done func(error)) {
			var alloc func(i int)
			alloc = func(i int) {
				if i == objects {
					done(nil)
					return
				}
				tx.Alloc(8, []byte("12345678"), &hint, func(a proto.Addr, err error) {
					if err != nil {
						done(err)
						return
					}
					addrs = append(addrs, a)
					alloc(i + 1)
				})
			}
			alloc(0)
		})
		if err != nil {
			panic(err)
		}
		primary := c.Machine(0).PrimaryOf(region)
		// Drive read-only transactions from machines that are NOT the
		// primary, so every validation crosses the network.
		var drivers []int
		for i := 0; i < sc.Machines; i++ {
			if i != primary {
				drivers = append(drivers, i)
			}
		}
		op := func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
			tx := m.Begin(thread)
			var read func(i int)
			read = func(i int) {
				if i == objects {
					tx.Commit(func(err error) { done(err == nil) })
					return
				}
				tx.Read(addrs[i], 8, func(_ []byte, err error) {
					if err != nil {
						done(false)
						return
					}
					read(i + 1)
				})
			}
			read(0)
		}
		g := loadgen.New(c, op)
		tput, med, p99 := g.RunPoint(drivers, 2, 1, warm, measure)
		name := fmt.Sprintf("tr=%d", tr)
		switch tr {
		case 1:
			name += " (RPC validation)"
		case 1 << 20:
			name += " (RDMA validation)"
		}
		rows = append(rows, AblationRow{
			Setting: name, Tput: tput, Median: med, P99: p99,
			Extra: fmt.Sprintf("%d-object read set, one remote primary", objects),
		})
	}
	return rows
}

// AblationLocality compares TPC-C with clients co-partitioned by warehouse
// against clients picking warehouses at random (§6.2's locality design).
func AblationLocality(sc Scale, warm, measure sim.Time) []AblationRow {
	var rows []AblationRow
	for _, ignore := range []bool{false, true} {
		s := mustSetUp(Load{Scale: sc, Workload: "tpcc", Active: sc.Threads / 2, Concurrency: 1,
			Warm: warm, Measure: measure})
		s.TPCC.IgnoreLocality = ignore
		p := s.curvePoint()
		name := "co-partitioned"
		if ignore {
			name = "random-warehouse"
		}
		rows = append(rows, AblationRow{
			Setting: name, Tput: p.Tput, Median: p.Median, P99: p.P99,
			Extra: fmt.Sprintf("remote-touches=%d", s.TPCC.RemoteAccesses),
		})
	}
	return rows
}

// AblationLeaseDuration measures failure-detection delay (kill → suspect)
// across lease durations (§5.1: "FaRM leases are extremely short, which is
// key to high availability").
func AblationLeaseDuration(sc Scale, leases []sim.Time) []AblationRow {
	var rows []AblationRow
	for _, lease := range leases {
		spec := DefaultRecoverySpec(sc)
		spec.Lease = lease
		spec.Warm = 30 * sim.Millisecond
		spec.Measure = 300*sim.Millisecond + 10*lease
		run := RunFailure(spec)
		detect := run.Milestones["suspect"]
		rows = append(rows, AblationRow{
			Setting: fmt.Sprintf("lease=%v", lease),
			Tput:    run.PreTput * 1000,
			Median:  detect,
			P99:     run.FullThroughput,
			Extra:   "median col = detection delay; p99 col = full recovery",
		})
	}
	return rows
}

// AblationRecoveryPacing compares paced data recovery (8 KB / 4 ms) with
// an unpaced variant, measuring the post-failure throughput dip and the
// re-replication completion time — the trade-off of Figures 9 vs 14.
func AblationRecoveryPacing(sc Scale) []AblationRow {
	var rows []AblationRow
	type cfg struct {
		name       string
		aggressive bool
	}
	for _, cc := range []cfg{{"paced 8KB/4ms", false}, {"aggressive 4×32KB", true}} {
		spec := DefaultRecoverySpec(sc)
		spec.Aggressive = cc.aggressive
		spec.Lease = 5 * sim.Millisecond
		spec.Measure = 600 * sim.Millisecond
		run := RunFailure(spec)
		// Dip: minimum 1 ms throughput in the 100 ms after recovery of
		// locks, as a fraction of pre-failure throughput.
		minOps := run.PreTput
		base, ok := run.Milestones["all-active"]
		if !ok {
			base = 50 * sim.Millisecond
		}
		lo := run.KillAt + base
		for _, p := range run.Timeline {
			at := sim.Time(p.AtMs) * sim.Millisecond
			if at > lo && at < lo+100*sim.Millisecond && p.Ops < minOps {
				minOps = p.Ops
			}
		}
		rows = append(rows, AblationRow{
			Setting: cc.name,
			Tput:    run.PreTput * 1000,
			Median:  run.FullThroughput,
			P99:     run.DataRecoveryDone,
			Extra: fmt.Sprintf("post-recovery dip to %.0f%% of pre; median col = recovery, p99 col = re-replication done",
				100*minOps/run.PreTput),
		})
	}
	return rows
}
