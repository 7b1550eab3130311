package exper

import (
	"fmt"
	"strings"

	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/sim"
)

// This file reproduces Figure 16: false-positive lease expiries for the
// four lease-manager implementations across lease durations, measured with
// recovery disabled while all machines stress the CM with reads (§6.5).

// Fig16Cell is one (variant, duration) measurement.
type Fig16Cell struct {
	Variant  core.LeaseVariant
	Duration sim.Time
	// Expiries is normalized to a 10-minute run like the paper's y-axis.
	Expiries float64
}

// Figure16 measures every variant × duration combination. runFor is the
// simulated time per cell (the paper runs 10 minutes; counts are scaled).
func Figure16(sc Scale, durations []sim.Time, runFor sim.Time) []Fig16Cell {
	variants := []core.LeaseVariant{core.LeaseRPC, core.LeaseUD, core.LeaseUDThread, core.LeaseUDThreadPri}
	var out []Fig16Cell
	for _, v := range variants {
		for _, d := range durations {
			out = append(out, measureLeases(sc, v, d, runFor))
		}
	}
	return out
}

func measureLeases(sc Scale, variant core.LeaseVariant, lease sim.Time, runFor sim.Time) Fig16Cell {
	opts := sc.options()
	opts.LeaseVariant = variant
	opts.LeaseDuration = lease
	c := core.New(opts)
	c.DisableRecovery = true

	// Stress traffic: uniform lock-free reads keep worker threads and NICs
	// busy (the paper's storm reads from the CM; ours reads uniformly,
	// loading every machine's send path, including the CM's receive path).
	op, _, err := populate(c, "kv", Scale{Subscribers: 300, Regions: 2})
	if err != nil {
		panic(err)
	}
	g := loadgen.New(c, op)
	g.Start(allMachines(sc.Machines), sc.Threads, 2)
	before := c.Counters.Get("lease_expiry")
	c.RunFor(runFor)
	g.Stop()
	count := float64(c.Counters.Get("lease_expiry") - before)
	scale := (10 * 60 * sim.Second).Seconds() / runFor.Seconds()
	return Fig16Cell{Variant: variant, Duration: lease, Expiries: count * scale}
}

// FormatFig16 renders the grid.
func FormatFig16(cells []Fig16Cell) string {
	byVariant := map[core.LeaseVariant][]Fig16Cell{}
	var order []core.LeaseVariant
	for _, c := range cells {
		if _, ok := byVariant[c.Variant]; !ok {
			order = append(order, c.Variant)
		}
		byVariant[c.Variant] = append(byVariant[c.Variant], c)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s", "lease")
	for _, c := range byVariant[order[0]] {
		fmt.Fprintf(&b, "%12v", c.Duration)
	}
	b.WriteByte('\n')
	for _, v := range order {
		fmt.Fprintf(&b, "%-16s", v.String())
		for _, c := range byVariant[v] {
			fmt.Fprintf(&b, "%12.0f", c.Expiries)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
