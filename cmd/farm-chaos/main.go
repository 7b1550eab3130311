// farm-chaos runs randomized fault-injection campaigns against the
// simulated cluster and audits FaRM's invariants after every run:
// conservation, configuration agreement, durability and liveness. Failures
// print the seed, which reproduces the run exactly.
//
// With -audit (on by default) every nemesis heal and every run end triggers
// a cluster-wide state-integrity audit: replica digests are compared
// primary-vs-backups per region and any divergence is localized to the exact
// machine, block and object. -corrupt flips one byte in a backup mid-run to
// prove the detect→localize→repair path end to end.
//
// With -histcheck (on by default) every transaction's client-observable
// history is recorded and, after the quiesce, checked for strict
// serializability: the checker infers the per-object version order, builds
// the transaction dependency graph (ww/wr/rw plus real-time edges) and
// reports any cycle with a minimal witness. A violating run writes its
// canonical history dump to ./chaos-failures (or -histdump DIR) next to the
// seed that regenerates it; farm-histcheck re-judges dumps offline.
// -bug-validation deliberately breaks OCC read validation to prove the
// checker has teeth — such a run MUST fail.
//
//	farm-chaos -runs 10
//	farm-chaos -runs 5 -machines 9 -duration 2s -seed 42
//	farm-chaos -faults oneway,gray -runs 8
//	farm-chaos -corrupt -runs 1
//	farm-chaos -replay 42
//	farm-chaos -runs 1 -bug-validation -histdump /tmp/bugval
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"time"

	"farm/internal/chaos"
	"farm/internal/sim"
)

var (
	runs     = flag.Int("runs", 5, "number of chaos runs")
	machines = flag.Int("machines", 6, "cluster size")
	duration = flag.Duration("duration", 1200*time.Millisecond, "virtual time per run")
	seed     = flag.Uint64("seed", 1, "base seed")
	faults   = flag.String("faults", "", "comma-separated fault kinds to enable ("+kindNames()+"); empty = all")
	replay   = flag.Uint64("replay", 0, "replay one seed twice, verify the runs are identical, and print its fault timeline")
	audit    = flag.Bool("audit", true, "audit replica state-integrity after every nemesis heal and at end of run")
	corrupt  = flag.Bool("corrupt", false, "flip one byte in a backup replica mid-run; audits must detect, localize and repair it")

	histcheck = flag.Bool("histcheck", true, "record every transaction's history and run the strict-serializability checker after each run")
	histdump  = flag.String("histdump", "", "directory to write each run's canonical history dump; violating runs always dump (here or ./chaos-failures)")
	bugval    = flag.Bool("bug-validation", false, "deliberately break OCC read validation (test-only); the run MUST then fail with a history cycle")
)

// failureDir is where violating runs leave their history dumps when
// -histdump gives no destination.
const failureDir = "chaos-failures"

func main() {
	flag.Parse()
	cfg := chaos.DefaultConfig()
	cfg.Machines = *machines
	cfg.Duration = sim.Time(duration.Nanoseconds())
	cfg.Seed = *seed
	cfg.Audit = *audit
	cfg.InjectCorruption = *corrupt
	cfg.HistCheck = *histcheck
	cfg.HistDump = *histdump != ""
	cfg.BugSkipValidation = *bugval
	if *corrupt && !*audit {
		fmt.Fprintln(os.Stderr, "farm-chaos: -corrupt requires -audit (nothing else can detect it)")
		os.Exit(2)
	}

	if *faults != "" {
		if err := selectFaults(&cfg, *faults); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if *replay != 0 {
		replaySeed(cfg, *replay)
		return
	}

	fmt.Printf("chaos campaign: %d runs × %v on %d machines (%s)\n\n",
		*runs, *duration, *machines, enabledKinds(cfg))
	bad, audits := 0, 0
	for _, r := range chaos.Campaign(cfg, *runs) {
		fmt.Println(r)
		audits += r.Audits
		printDivergences(r)
		saveHistory(r)
		if len(r.Violations) > 0 {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "\n%d/%d runs violated invariants\n", bad, *runs)
		os.Exit(1)
	}
	if *audit {
		fmt.Printf("\nall %d runs clean: money conserved, one configuration, cluster live, %d audits passed\n", *runs, audits)
	} else {
		fmt.Printf("\nall %d runs clean: money conserved, one configuration, cluster live\n", *runs)
	}
}

// saveHistory writes a run's history dump to disk: always when -histdump
// names a directory, and always for a violating run (so the bug report is
// complete: the dump plus the seed that regenerates it byte for byte).
func saveHistory(r chaos.Result) {
	if len(r.HistoryJSON) == 0 {
		return
	}
	dir := *histdump
	if dir == "" {
		if len(r.Violations) == 0 {
			return
		}
		dir = failureDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "farm-chaos: %v\n", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("seed-%d.history.json", r.Seed))
	if err := os.WriteFile(path, r.HistoryJSON, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "farm-chaos: %v\n", err)
		return
	}
	fmt.Printf("    history dump: %s (%d events)\n", path, r.HistEvents)
	if len(r.Violations) > 0 {
		fmt.Printf("    reproduce:    go run ./cmd/farm-chaos -replay %d\n", r.Seed)
		fmt.Printf("    inspect:      go run ./cmd/farm-histcheck %s\n", path)
	}
}

// printDivergences surfaces audit divergence localizations (corruption
// injections too, so a -corrupt run reads as a cause→effect story) under a
// run's summary line.
func printDivergences(r chaos.Result) {
	for _, e := range r.Timeline {
		if strings.Contains(e, "audit-divergence") || strings.Contains(e, "corrupt") {
			fmt.Printf("    %s\n", e)
		}
	}
}

// faultKind is one nemesis kind: its -faults name, the Config weight it
// sets and that weight's default.
type faultKind struct {
	name   string
	weight *int
	def    int
}

// faultKinds lists every nemesis kind of cfg, in banner order.
func faultKinds(cfg *chaos.Config) []faultKind {
	def := chaos.DefaultConfig()
	return []faultKind{
		{"kill", &cfg.KillWeight, def.KillWeight},
		{"cmkill", &cfg.CMKillWeight, def.CMKillWeight},
		{"partition", &cfg.PartitionWeight, def.PartitionWeight},
		{"oneway", &cfg.OneWayWeight, def.OneWayWeight},
		{"flap", &cfg.FlapWeight, def.FlapWeight},
		{"gray", &cfg.GrayWeight, def.GrayWeight},
		{"power", &cfg.PowerWeight, def.PowerWeight},
	}
}

// kindNames lists every kind's name, comma-separated.
func kindNames() string {
	var names []string
	for _, k := range faultKinds(&chaos.Config{}) {
		names = append(names, k.name)
	}
	return strings.Join(names, ",")
}

// selectFaults zeroes every nemesis weight, then restores the default
// weight of each kind named in the comma-separated list.
func selectFaults(cfg *chaos.Config, list string) error {
	kinds := faultKinds(cfg)
	for _, k := range kinds {
		*k.weight = 0
	}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(kinds, func(k faultKind) bool { return k.name == name })
		if i < 0 {
			return fmt.Errorf("farm-chaos: unknown fault kind %q (have %s)", name, kindNames())
		}
		*kinds[i].weight = kinds[i].def
	}
	return nil
}

// enabledKinds renders the active fault kinds for the banner.
func enabledKinds(cfg chaos.Config) string {
	var kinds []string
	for _, k := range faultKinds(&cfg) {
		if *k.weight > 0 {
			kinds = append(kinds, k.name)
		}
	}
	return strings.Join(kinds, ",")
}

// replaySeed runs one seed twice, requires the runs to be byte-identical
// (the determinism contract every chaos bug report rests on), and prints
// the fault timeline of the run.
func replaySeed(cfg chaos.Config, seed uint64) {
	cfg.Seed = seed
	fmt.Printf("replaying seed %d twice (%v on %d machines, faults: %s)\n\n",
		seed, time.Duration(cfg.Duration), cfg.Machines, enabledKinds(cfg))
	a := chaos.Run(cfg)
	b := chaos.Run(cfg)
	if !reflect.DeepEqual(a, b) {
		fmt.Fprintf(os.Stderr, "NOT DETERMINISTIC: same seed, different runs\n  first:  %v\n  second: %v\n", a, b)
		os.Exit(1)
	}
	fmt.Println(a)
	saveHistory(a)
	fmt.Printf("\nfault timeline (%d episodes):\n", len(a.Timeline))
	for _, e := range a.Timeline {
		fmt.Printf("  %s\n", e)
	}
	fmt.Println("\nreplay identical: run is deterministic in its seed")
	if len(a.Violations) > 0 {
		os.Exit(1)
	}
}
