package exper

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"farm/internal/core"
	"farm/internal/sim"
	"farm/internal/trace"
)

// This file reproduces the failure experiments: Figures 9–15. The
// methodology follows §6.4: run the benchmark, kill a process mid-run,
// plot throughput of the survivors at 1 ms granularity, annotate the
// recovery milestones, and track re-replicated regions over time.

// FailureKind selects the victim.
type FailureKind int

// Victim kinds.
const (
	KillBackup FailureKind = iota // a non-CM machine (Figures 9, 10)
	KillCM                        // the configuration manager (Figure 11)
	KillDomain                    // a whole failure domain (Figure 13)
)

// victims names each FailureKind the way the tools' -victim flags do.
var victims = [...]string{KillBackup: "backup", KillCM: "cm", KillDomain: "domain"}

// ParseVictim returns the FailureKind a victim name selects.
func ParseVictim(name string) (FailureKind, error) {
	if k := slices.Index(victims[:], name); k >= 0 {
		return FailureKind(k), nil
	}
	return 0, fmt.Errorf("unknown victim %q (want %s)", name, strings.Join(victims[:], " | "))
}

// RecoverySpec parameterizes a failure run.
type RecoverySpec struct {
	// Load is the workload that runs throughout: Warm is the load before
	// the kill, Measure the run after it.
	Load
	Kind   FailureKind
	Domain int // for KillDomain
	// Lease is the failure-detection lease (10 ms in §6.1).
	Lease sim.Time
	// Aggressive selects the §6.4 aggressive data recovery (4 concurrent
	// 32 KB fetches per thread).
	Aggressive bool
	// Trace enables causality tracing; the exported Chrome JSON and the
	// phase/timeline report land on the RecoveryRun.
	Trace trace.Options
}

// DefaultRecoverySpec mirrors the Figure 9 setup, scaled.
func DefaultRecoverySpec(sc Scale) RecoverySpec {
	return RecoverySpec{
		Load: Load{Scale: sc, Workload: "tatp", Concurrency: 4,
			Warm: 40 * sim.Millisecond, Measure: 400 * sim.Millisecond},
		Kind:  KillBackup,
		Lease: 10 * sim.Millisecond,
	}
}

// RecoveryRun is the outcome: the throughput timeline, milestone times
// (all relative to the kill), and the data-recovery progress curve.
type RecoveryRun struct {
	Victims  []int
	KillAt   sim.Time
	PreTput  float64 // committed ops per ms before the kill
	Timeline []TimelinePoint
	// Milestones: suspect, probe-done, zookeeper, config-commit,
	// all-active, data-rec-start (times after the kill).
	Milestones map[string]sim.Time
	// FullThroughput is when throughput regained 80% of the survivors'
	// share of PreTput (§6.4's recovery-time metric), relative to the
	// kill; <0 if never.
	FullThroughput sim.Time
	// DipFraction is the deepest 1 ms throughput bucket after the kill as
	// a fraction of the pre-failure throughput.
	DipFraction float64
	// RegionsRecovered is the cumulative re-replication curve.
	RegionsRecovered []RegionPoint
	// DataRecoveryDone is when the last region re-replicated (rel. kill).
	DataRecoveryDone sim.Time
	// RecoveringTxs is the number of transactions recovery examined.
	RecoveringTxs uint64
	// TraceJSON / TraceReport are set when the spec enabled tracing.
	TraceJSON   []byte
	TraceReport string
}

// TimelinePoint is one 1 ms bucket of survivor throughput.
type TimelinePoint struct {
	AtMs int64
	Ops  float64
}

// RegionPoint is one step of the re-replication curve.
type RegionPoint struct {
	After sim.Time
	Count int
}

// RunFailure executes one failure experiment.
func RunFailure(spec RecoverySpec) RecoveryRun {
	sc := spec.Scale
	opts := sc.options()
	opts.LeaseDuration = spec.Lease
	opts.Trace = spec.Trace
	if spec.Kind == KillDomain {
		opts.FailureDomains = 3
	}
	if spec.Aggressive {
		opts.DataRecBlock = 32 << 10
		opts.DataRecConcurrency = 4
	}
	s, err := spec.setUp(opts)
	if err != nil {
		panic(err)
	}
	c, g := s.C, s.G
	// Keep the drivers-per-warehouse ratio sane (§6.2): TPC-C melts under
	// OCC when many drivers share a warehouse, which would drown the
	// recovery signal in conflict noise.
	if s.TPCC != nil && s.Active*s.Concurrency*sc.Machines > 2*sc.Warehouses {
		s.Concurrency = 1
		if s.Active*sc.Machines > 2*sc.Warehouses {
			s.Active = max(1, 2*sc.Warehouses/sc.Machines)
		}
	}
	g.Start(allMachines(sc.Machines), s.Active, s.Concurrency)
	c.RunFor(spec.Warm)

	killAt := c.Now()
	var victims []int
	switch spec.Kind {
	case KillCM:
		victims = []int{0}
		c.Kill(0)
	case KillDomain:
		d := spec.Domain
		if d == 0 {
			d = 1 // domain 0 contains the CM
		}
		for _, m := range c.Machines {
			if m.Alive() && m.ConfigID() > 0 && d == mDomain(c, m.ID) {
				victims = append(victims, m.ID)
				c.Kill(m.ID)
			}
		}
	default:
		// The non-CM machine hosting the most regions (primaries weighted
		// double), so the failure actually exercises promotion, lock
		// recovery and data recovery.
		v, most := sc.Machines-1, -1
		for _, m := range c.Machines {
			if m.ID == 0 {
				continue
			}
			weight := 0
			for _, region := range m.HostedRegions() {
				weight++
				if m.PrimaryOf(region) == m.ID {
					weight++
				}
			}
			if weight > most {
				v, most = m.ID, weight
			}
		}
		victims = []int{v}
		c.Kill(v)
	}
	c.RunFor(spec.Measure)
	g.Stop()

	run := RecoveryRun{Victims: victims, KillAt: killAt, Milestones: map[string]sim.Time{}}
	// Pre-failure throughput (skip the first ramp-up fifth).
	run.PreTput = g.Timeline.WindowAverage(spec.Warm/5, killAt)

	times, vals := g.Timeline.Series()
	for i, at := range times {
		run.Timeline = append(run.Timeline, TimelinePoint{AtMs: int64(at / sim.Millisecond), Ops: vals[i]})
	}
	for _, ev := range []string{"suspect", "probe-done", "zookeeper", "config-commit", "all-active", "data-rec-start"} {
		if at, ok := c.TraceTime(ev, killAt); ok {
			run.Milestones[ev] = at - killAt
		}
	}
	// Recovery target: 80% of the pre-failure throughput attributable to
	// the survivors. The paper's clusters lose 1/90 of capacity per kill,
	// which is negligible; at simulation scale the dead machines' share of
	// offered load matters and is factored out. Per §6.4's methodology the
	// clock runs "from the point where the failed machine is suspected by
	// the CM until throughput recovers to 80%".
	share := float64(sc.Machines-len(victims)) / float64(sc.Machines)
	target := 0.8 * run.PreTput * share
	from := killAt
	if s, ok := run.Milestones["suspect"]; ok {
		from = killAt + s
	}
	run.FullThroughput = -1
	minOps := run.PreTput
	for i, p := range run.Timeline {
		at := sim.Time(p.AtMs) * sim.Millisecond
		if at <= killAt {
			continue
		}
		if at <= from+spec.Measure/2 && p.Ops < minOps {
			minOps = p.Ops
		}
		if at <= from {
			continue
		}
		if run.FullThroughput < 0 && p.Ops >= target &&
			i+1 < len(run.Timeline) && run.Timeline[i+1].Ops >= target*0.6 {
			run.FullThroughput = at - killAt
		}
	}
	if run.PreTput > 0 {
		run.DipFraction = minOps / run.PreTput
	}
	// Re-replication curve.
	var recTimes []sim.Time
	for _, at := range c.RegionRecoveredAt {
		if at >= killAt {
			recTimes = append(recTimes, at-killAt)
		}
	}
	sort.Slice(recTimes, func(i, j int) bool { return recTimes[i] < recTimes[j] })
	for i, at := range recTimes {
		run.RegionsRecovered = append(run.RegionsRecovered, RegionPoint{After: at, Count: i + 1})
	}
	if n := len(recTimes); n > 0 {
		run.DataRecoveryDone = recTimes[n-1]
	}
	run.RecoveringTxs = c.Counters.Get("recovering_tx_found")
	if c.Tracer != nil {
		run.TraceJSON = c.Tracer.Export()
		run.TraceReport = c.Tracer.Report()
	}
	return run
}

func mDomain(c *core.Cluster, id int) int {
	return id % c.Opts.FailureDomains
}

// String renders the run like the paper's figure annotations.
func (r RecoveryRun) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "killed machines %v at t=%v\n", r.Victims, r.KillAt)
	fmt.Fprintf(&b, "pre-failure throughput: %.1f ops/ms\n", r.PreTput)
	for _, ev := range []string{"suspect", "probe-done", "zookeeper", "config-commit", "all-active", "data-rec-start"} {
		if at, ok := r.Milestones[ev]; ok {
			fmt.Fprintf(&b, "  %-14s +%v\n", ev, at)
		}
	}
	if r.FullThroughput >= 0 {
		fmt.Fprintf(&b, "throughput dipped to %.0f%% of pre-failure; back to 80%% in %v after the kill\n",
			r.DipFraction*100, r.FullThroughput)
	} else {
		fmt.Fprintf(&b, "throughput dipped to %.0f%% and did NOT recover in the window\n", r.DipFraction*100)
	}
	fmt.Fprintf(&b, "recovering transactions: %d\n", r.RecoveringTxs)
	if len(r.RegionsRecovered) > 0 {
		fmt.Fprintf(&b, "regions re-replicated: %d (last at +%v)\n",
			len(r.RegionsRecovered), r.DataRecoveryDone)
	}
	return b.String()
}

// Plot renders ±window of 1 ms buckets around the kill as a bar chart for
// the zoomed "time to full throughput" views of Figures 9a/10a: one line a
// bucket, its millisecond right-aligned in digits columns, the kill's
// bucket marked ×, and a bar of up to 60 marks scaled to the busiest one.
func (r RecoveryRun) Plot(window sim.Time, mark string, digits int) string {
	killMs := int64(r.KillAt / sim.Millisecond)
	w := int64(window / sim.Millisecond)
	var pts []TimelinePoint
	peak := 0.0
	for _, p := range r.Timeline {
		if p.AtMs >= killMs-w && p.AtMs <= killMs+w {
			pts = append(pts, p)
			peak = max(peak, p.Ops)
		}
	}
	if peak == 0 {
		peak = 1
	}
	var b strings.Builder
	for _, p := range pts {
		at := " "
		if p.AtMs == killMs {
			at = "×"
		}
		fmt.Fprintf(&b, "%*dms %s|%s\n", digits, p.AtMs, at, strings.Repeat(mark, int(p.Ops/peak*60)))
	}
	return b.String()
}

// RecoveryDistribution repeats the Figure 9 experiment n times with
// different seeds and returns the recovery times in ms, sorted (Figure
// 12's CDF).
func RecoveryDistribution(sc Scale, n int, lease sim.Time) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		spec := DefaultRecoverySpec(sc)
		spec.Scale.Seed = sc.Seed + uint64(i)*101
		spec.Lease = lease
		spec.Warm = 30 * sim.Millisecond
		spec.Measure = 300 * sim.Millisecond
		run := RunFailure(spec)
		if run.FullThroughput >= 0 {
			out = append(out, run.FullThroughput.Millis())
		} else {
			out = append(out, spec.Measure.Millis())
		}
	}
	sort.Float64s(out)
	return out
}

// Percentile picks from a sorted distribution.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}
