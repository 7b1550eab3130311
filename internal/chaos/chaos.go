// Package chaos long-runs the platform under randomized fault injection
// while a bank-transfer workload executes, then audits the invariants FaRM
// promises: conservation (serializable transfers never create or destroy
// money), durability (committed state survives every fault the
// configuration tolerates), agreement (one configuration), and liveness
// (the surviving majority keeps committing, and none of its clients waits
// forever on an operation).
//
// The workload is internal/bank driven by loadgen, two clients per
// machine. With history on, about one operation in ten is a probe: a
// read-only bank.Sum over every account. Result.Commits counts committed
// operations, declined transfers and probes included.
//
// Faults are produced by a nemesis schedule: a weighted set of composable
// fault generators. Instantaneous nemeses (machine kills, CM kills) leave
// permanent damage; durational nemeses (partitions, one-way cuts, link
// flapping, gray failures, power outages) install a fault, hold it for a
// randomized episode, and heal it — one durational episode at a time, so a
// violated invariant points at one fault kind. Every run is deterministic
// in its seed: the same seed replays the same faults at the same virtual
// times, so a violation is a replayable bug report.
package chaos

import (
	"encoding/binary"
	"fmt"

	"farm/internal/bank"
	"farm/internal/core"
	"farm/internal/fabric"
	"farm/internal/history"
	"farm/internal/loadgen"
	"farm/internal/sim"
	"farm/internal/trace"
)

// Config parameterizes a chaos campaign.
type Config struct {
	Machines int
	Accounts int
	Initial  uint64
	// Duration is virtual time per run.
	Duration sim.Time
	// FaultEvery is the mean interval between injected faults.
	FaultEvery sim.Time
	// Nemesis weights; a zero weight disables the kind. KillWeight picks
	// any alive machine — including the CM, whose death must produce a
	// failover, not an exemption. CMKillWeight additionally targets
	// whatever machine is currently CM, so failover is exercised even in
	// short runs where a uniform pick rarely lands on it.
	KillWeight      int
	CMKillWeight    int
	PartitionWeight int
	OneWayWeight    int
	FlapWeight      int
	GrayWeight      int
	PowerWeight     int
	// MaxKills bounds how many machines may stay dead at once; kills are
	// additionally blocked when they would drop the alive population below
	// Machines-2 (the cluster must keep a probe majority and room for f+1
	// replicas).
	MaxKills int
	Lease    sim.Time
	Seed     uint64
	// LogCapacity overrides the per-sender transaction-log ring size
	// (bytes; 0 = core default). Large clusters shrink it: rings scale
	// with machines², so 50 machines at the 256 KB default would spend
	// hundreds of megabytes on rings alone.
	LogCapacity int
	// Audit enables state-integrity auditing: replica digests are compared
	// after every healed fault episode and once conclusively after the
	// final quiesce. Any divergence (outside InjectCorruption runs) is a
	// violation; self-healing repair is armed.
	Audit bool
	// InjectCorruption silently flips one byte of a backup replica mid-run
	// (bypassing every write hook): the run then REQUIRES the audits to
	// detect, localize and repair it. The victim slot is a free slot — in
	// the digest domain, but never overwritten by the workload — so the
	// corruption cannot be masked by an ordinary commit racing the audit.
	InjectCorruption bool
	// Trace enables causality tracing for the run; the merged Chrome
	// trace_event JSON lands in Result.TraceJSON.
	Trace trace.Options
	// HistCheck records every transaction's client-observable history
	// (internal/history) and runs the offline strict-serializability
	// checker over it after the quiesce: any dependency cycle, dirty read
	// or duplicate version install is a violation. It also arms read-only
	// sum-all-accounts probe transactions in the workload — transfers alone
	// read exactly what they write (lock-protected even without
	// validation), so wide read-only snapshots are what give the checker
	// teeth against validation bugs.
	HistCheck bool
	// HistDump forces Result.HistoryJSON to carry the canonical history
	// dump even on clean runs. (A run with history violations always
	// carries its dump.)
	HistDump bool
	// BugSkipValidation disables OCC read validation in the core — a
	// test-only fault injected into the protocol itself. A run with this
	// set is EXPECTED to fail: the history checker must catch the
	// resulting serializability violations with a concrete cycle witness.
	BugSkipValidation bool
}

// DefaultConfig returns a campaign tuned to finish one run in a few wall
// seconds, with every nemesis kind enabled.
func DefaultConfig() Config {
	return Config{
		Machines:        6,
		Accounts:        24,
		Initial:         1000,
		Duration:        1200 * sim.Millisecond,
		FaultEvery:      150 * sim.Millisecond,
		KillWeight:      3,
		CMKillWeight:    2,
		PartitionWeight: 2,
		OneWayWeight:    2,
		FlapWeight:      1,
		GrayWeight:      2,
		PowerWeight:     1,
		MaxKills:        2,
		Lease:           5 * sim.Millisecond,
		Seed:            1,
		Audit:           true,
		HistCheck:       true,
	}
}

// Result summarizes one run.
type Result struct {
	Seed    uint64
	Commits uint64
	Aborts  uint64
	// NoLogSpace and Unavailable are the aborts that were not conflicts:
	// commits refused for want of log space or of a region mapping (core's
	// tx_no_log_space / tx_unavailable counters). Not part of String.
	NoLogSpace  uint64
	Unavailable uint64
	Kills       int
	CMKills     int
	Partitions  int
	OneWays     int
	Flaps       int
	Grays       int
	PowerCycles int
	// Audits counts conclusive region audits; AuditSkips counts audits
	// that could not settle (never violations); AuditDivergences counts
	// conclusive digest mismatches.
	Audits, AuditSkips, AuditDivergences int
	// CorruptionDetected/CorruptionRepaired report the fate of an
	// InjectCorruption run's flipped byte.
	CorruptionDetected, CorruptionRepaired bool
	// Timeline records every fired fault episode as "<virtual-time> <kind>"
	// in injection order (plus audit divergences with their localization);
	// replaying the seed reproduces it byte for byte.
	Timeline []string
	// Violations lists invariant failures (empty = clean run).
	Violations []string
	// TraceJSON is the exported causality trace (nil unless Config.Trace
	// enabled it). Included in the determinism contract: the same seed
	// must reproduce it byte for byte.
	TraceJSON []byte
	// History-checker summary (zero unless Config.HistCheck).
	// HistIndeterminate counts transactions whose coordinator died before
	// reporting an outcome; HistInferred is the subset whose commit the
	// checker proved from later reads. OpacityChecked/NonOpaque report the
	// opacity probe over aborted transactions (a measurement, not a
	// violation: FaRM's individual reads are atomic but aborted
	// transactions may observe inconsistent cross-object snapshots).
	HistEvents, HistCommitted, HistInferred, HistIndeterminate int
	OpacityChecked, NonOpaque                                  int
	// HistoryJSON is the canonical history dump — populated when
	// Config.HistDump is set or when the checker found violations, nil
	// otherwise (a 20-run campaign's histories would dwarf everything
	// else in memory). Byte-identical across replays of the same seed.
	HistoryJSON []byte
}

// Faults is the total number of injected fault episodes.
func (r Result) Faults() int {
	return r.Kills + r.CMKills + r.Partitions + r.OneWays + r.Flaps + r.Grays + r.PowerCycles
}

// String renders the result.
func (r Result) String() string {
	status := "OK"
	if len(r.Violations) > 0 {
		status = fmt.Sprintf("VIOLATED %v", r.Violations)
	}
	hist := ""
	if r.HistEvents > 0 {
		hist = fmt.Sprintf(" hist=%d(%dc/%di/%d?) nonopaque=%d/%d",
			r.HistEvents, r.HistCommitted, r.HistInferred, r.HistIndeterminate, r.NonOpaque, r.OpacityChecked)
	}
	return fmt.Sprintf("seed=%d commits=%d aborts=%d kills=%d cmkills=%d partitions=%d oneways=%d flaps=%d grays=%d powercycles=%d audits=%d/%d skips%s → %s",
		r.Seed, r.Commits, r.Aborts, r.Kills, r.CMKills, r.Partitions, r.OneWays, r.Flaps, r.Grays, r.PowerCycles, r.Audits, r.AuditSkips, hist, status)
}

// Nemesis is one composable fault generator. Inject attempts to start an
// episode and reports whether it fired; generators decline when their
// preconditions do not hold (eviction budget exhausted, another durational
// episode in flight). Durational nemeses schedule their own heal.
type Nemesis struct {
	Name   string
	Weight int
	Inject func() bool
}

// nemesisCtx is the state a schedule's generators share.
type nemesisCtx struct {
	c   *core.Cluster
	cfg Config
	rng *sim.Rand
	res *Result
	// busy serializes durational episodes.
	busy bool
	// cmKillCfg is the highest configuration observed at the moment of a
	// CM kill; the post-run audit requires the final configuration to have
	// advanced past it (failover happened).
	cmKillCfg uint64
	// restoredAt is the last power restore. Operations an outage caught in
	// flight may stay open for good (their outcome is indeterminate); the
	// liveness judge looks only at operations begun after it.
	restoredAt sim.Time
	// load is the run's clients; a power restore resumes those it parked.
	load *loadgen.Generator
}

// afterHeal ends a durational episode and, when auditing is enabled,
// schedules a cluster-wide digest comparison once the heal's recovery has
// had a moment to settle (audits that still catch recovery in flight
// report inconclusive and count as skips, never violations).
func (n *nemesisCtx) afterHeal() {
	n.busy = false
	n.scheduleAudit()
}

// scheduleAudit runs StartAudit shortly after a fault episode resolves.
func (n *nemesisCtx) scheduleAudit() {
	if !n.cfg.Audit {
		return
	}
	n.c.Eng.After(15*sim.Millisecond, func() {
		n.c.StartAudit(n.tally)
	})
}

// tally folds one cluster audit's reports into the result. Divergences
// are recorded on the timeline with their full localization so a -replay
// of the seed reproduces the audit failure byte for byte.
func (n *nemesisCtx) tally(reports []core.AuditReport) {
	for _, r := range reports {
		if !r.Conclusive {
			n.res.AuditSkips++
			continue
		}
		n.res.Audits++
		if !r.Clean {
			n.res.AuditDivergences++
			n.res.CorruptionDetected = true
			if r.Repaired {
				n.res.CorruptionRepaired = true
			}
			n.res.Timeline = append(n.res.Timeline,
				fmt.Sprintf("%v audit-divergence %s", n.c.Now(), r.String()))
		}
	}
}

// latestMember returns the lowest-numbered alive machine holding the latest
// configuration any alive machine holds, or nil when none is alive.
func latestMember(c *core.Cluster) *core.Machine {
	var latest *core.Machine
	for _, id := range c.AliveMachines() {
		if m := c.Machine(id); latest == nil || m.ConfigID() > latest.ConfigID() {
			latest = m
		}
	}
	return latest
}

// aliveMembers counts alive machines that are members of the latest
// configuration any alive machine holds — the population that matters for
// probe majorities and replica placement.
func (n *nemesisCtx) aliveMembers() int {
	latest := latestMember(n.c)
	if latest == nil {
		return 0
	}
	count := 0
	for _, id := range n.c.AliveMachines() {
		if latest.Member(id) {
			count++
		}
	}
	return count
}

// killBudgetOK gates anything that permanently removes a machine: stay
// within MaxKills and never drop the alive membership below Machines-2
// (floor 4 on the default 6 — still a majority, still ≥ f+1 replicas).
func (n *nemesisCtx) killBudgetOK() bool {
	dead := n.cfg.Machines - len(n.c.AliveMachines())
	return dead < n.cfg.MaxKills && n.aliveMembers()-1 >= n.cfg.Machines-2
}

// aliveCM returns the machine currently acting as CM of the latest
// configuration, or -1.
func (n *nemesisCtx) aliveCM() int {
	cm, latest := -1, uint64(0)
	for _, id := range n.c.AliveMachines() {
		m := n.c.Machine(id)
		if m.IsCM() && m.Member(id) && m.ConfigID() >= latest {
			latest, cm = m.ConfigID(), id
		}
	}
	return cm
}

// victim picks a random alive member of the latest configuration, or -1.
func (n *nemesisCtx) victim() int {
	alive := n.c.AliveMachines()
	if len(alive) == 0 {
		return -1
	}
	return alive[n.rng.Intn(len(alive))]
}

// schedule assembles the weighted generator set for cfg. Weights of zero
// drop a generator entirely, which is how farm-chaos -faults selects kinds.
func schedule(n *nemesisCtx) []Nemesis {
	cfg := n.cfg
	return []Nemesis{
		{Name: "kill", Weight: cfg.KillWeight, Inject: func() bool {
			// No CM exemption: a uniform pick that lands on the CM is a
			// failover test like any other kill.
			if !n.killBudgetOK() {
				return false
			}
			v := n.victim()
			if v < 0 {
				return false
			}
			if v == n.aliveCM() {
				n.cmKillCfg = max(n.cmKillCfg, n.c.Machine(v).ConfigID())
				n.res.CMKills++
			} else {
				n.res.Kills++
			}
			n.c.Kill(v)
			n.scheduleAudit()
			return true
		}},
		{Name: "cmkill", Weight: cfg.CMKillWeight, Inject: func() bool {
			if !n.killBudgetOK() {
				return false
			}
			cm := n.aliveCM()
			if cm < 0 {
				return false
			}
			n.cmKillCfg = max(n.cmKillCfg, n.c.Machine(cm).ConfigID())
			n.res.CMKills++
			n.c.Kill(cm)
			n.scheduleAudit()
			return true
		}},
		{Name: "partition", Weight: cfg.PartitionWeight, Inject: func() bool {
			if n.busy {
				return false
			}
			// Cut off one non-CM machine symmetrically for a while.
			v := 1 + n.rng.Intn(cfg.Machines-1)
			n.busy = true
			n.res.Partitions++
			n.c.Partition(map[int]int{v: 1})
			n.c.Eng.After(n.rng.Between(20*sim.Millisecond, 60*sim.Millisecond), func() {
				n.c.Heal()
				n.afterHeal()
			})
			return true
		}},
		{Name: "oneway", Weight: cfg.OneWayWeight, Inject: func() bool {
			if n.busy {
				return false
			}
			v := n.victim()
			if v < 0 {
				return false
			}
			n.busy = true
			n.res.OneWays++
			// Inbound cut: v keeps sending (the CM keeps hearing its lease
			// requests) but receives nothing — the asymmetric case precise
			// membership exists for. Outbound cut: v goes silent but hears
			// everything, including its own eviction's aftermath.
			if n.rng.Bool(0.5) {
				n.c.IsolateInbound(v)
			} else {
				n.c.IsolateOutbound(v)
			}
			n.c.Eng.After(n.rng.Between(20*sim.Millisecond, 50*sim.Millisecond), func() {
				n.c.RestoreMachine(v)
				n.afterHeal()
			})
			return true
		}},
		{Name: "flap", Weight: cfg.FlapWeight, Inject: func() bool {
			if n.busy {
				return false
			}
			alive := n.c.AliveMachines()
			if len(alive) < 2 {
				return false
			}
			a := alive[n.rng.Intn(len(alive))]
			b := alive[n.rng.Intn(len(alive))]
			if a == b {
				return false
			}
			n.busy = true
			n.res.Flaps++
			deadline := n.c.Now() + n.rng.Between(24*sim.Millisecond, 48*sim.Millisecond)
			cut := false
			var toggle func()
			toggle = func() {
				if n.c.Now() >= deadline {
					n.c.HealLink(a, b)
					n.afterHeal()
					return
				}
				if cut {
					n.c.HealLink(a, b)
				} else {
					n.c.CutLink(a, b)
				}
				cut = !cut
				n.c.Eng.After(n.rng.Between(2*sim.Millisecond, 6*sim.Millisecond), toggle)
			}
			toggle()
			return true
		}},
		{Name: "gray", Weight: cfg.GrayWeight, Inject: func() bool {
			if n.busy {
				return false
			}
			v := n.victim()
			if v < 0 {
				return false
			}
			n.busy = true
			n.res.Grays++
			f := fabric.MachineFault{ // mild: slow but inside lease margins
				OpTimeFactor:    4,
				BandwidthFactor: 0.5,
				ExtraDelay:      sim.Exp(10*sim.Microsecond, 20*sim.Microsecond),
			}
			if n.rng.Bool(0.5) { // severe: slow enough to look dead sometimes
				f = fabric.MachineFault{
					OpTimeFactor:    50,
					BandwidthFactor: 0.05,
					ExtraDelay:      sim.Uniform(50*sim.Microsecond, 200*sim.Microsecond),
				}
			}
			n.c.DegradeMachine(v, f)
			n.c.Eng.After(n.rng.Between(30*sim.Millisecond, 60*sim.Millisecond), func() {
				n.c.RestoreMachine(v)
				n.afterHeal()
			})
			return true
		}},
		{Name: "power", Weight: cfg.PowerWeight, Inject: func() bool {
			if n.busy || len(n.c.AliveMachines()) != cfg.Machines {
				return false
			}
			n.busy = true
			n.res.PowerCycles++
			n.c.PowerFailure()
			n.c.Eng.After(n.rng.Between(20*sim.Millisecond, 80*sim.Millisecond), func() {
				n.c.RestorePower()
				n.load.Resume()
				n.restoredAt = n.c.Now()
				n.afterHeal()
			})
			return true
		}},
	}
}

// Run executes one chaos run.
func Run(cfg Config) Result {
	res := Result{Seed: cfg.Seed}
	opts := core.Options{
		NumMachines:   cfg.Machines,
		Seed:          cfg.Seed,
		LeaseDuration: cfg.Lease,
		LogCapacity:   cfg.LogCapacity,
		Trace:         cfg.Trace,
		History:       cfg.HistCheck || cfg.HistDump,
		// TEST-ONLY: see Config.BugSkipValidation.
		SkipReadValidation: cfg.BugSkipValidation,
	}
	c := core.New(opts)
	w, err := bank.Setup(c, cfg.Accounts, 3, cfg.Initial)
	if err != nil {
		res.Violations = append(res.Violations, "setup: "+err.Error())
		return res
	}
	total := w.Total()

	// Two bank clients per machine (a dead machine's just stop). With
	// history on, one operation in ten is a probe: a read-only Sum of every
	// account. A committed sum ≠ total is a conservation violation, and in
	// the history these wide reads turn broken validation into a cycle.
	var snapBad int
	op := w.Transfer
	if opts.History {
		op = func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
			if rng.Intn(10) != 0 {
				w.Transfer(m, thread, rng, done)
				return
			}
			tx := m.Begin(thread)
			w.Sum(tx, func(sum uint64, err error) {
				if err != nil {
					tx.Abort()
					done(false)
					return
				}
				tx.Commit(func(err error) {
					if err == nil && sum != total {
						snapBad++
						if snapBad <= 3 {
							res.Violations = append(res.Violations,
								fmt.Sprintf("conservation-snapshot: committed read-only Σ=%d want %d (m%d at %v)",
									sum, total, m.ID, c.Now()))
						}
					}
					done(err == nil)
				})
			})
		}
	}
	load := loadgen.New(c, op)
	load.Start(c.AliveMachines(), 2, 1)

	// Nemesis schedule: pick a generator by weight at randomized intervals.
	nctx := &nemesisCtx{
		c:    c,
		cfg:  cfg,
		rng:  sim.NewRand(cfg.Seed*31337 + 7),
		res:  &res,
		load: load,
	}
	gens := schedule(nctx)
	weightSum := 0
	for _, g := range gens {
		weightSum += g.Weight
	}

	// Silent corruption mid-run: flip one byte on a backup, bypassing every
	// write hook. The audits are then REQUIRED to find it. Track the victim:
	// if a later kill takes the corrupted replica out of the placement, the
	// corruption legitimately dies with it and detection becomes vacuous.
	corruptMachine, corruptRegion := -1, uint32(0)
	if cfg.Audit && cfg.InjectCorruption {
		c.Eng.After(cfg.Duration/2, func() {
			corruptRegion = w.Accounts[nctx.rng.Intn(len(w.Accounts))].Region
			if mach, off, ok := c.CorruptBackupObject(corruptRegion, false); ok {
				corruptMachine = mach
				res.Timeline = append(res.Timeline,
					fmt.Sprintf("%v corrupt m%d region %d object @%d", c.Now(), mach, corruptRegion, off))
			}
		})
	}
	var inject func()
	inject = func() {
		// Stop injecting before the quiesce window so every durational
		// episode (≤ 80ms) has healed well before the audits run.
		if c.Now() > cfg.Duration-200*sim.Millisecond || weightSum == 0 {
			return
		}
		pick := nctx.rng.Intn(weightSum)
		for _, g := range gens {
			if pick < g.Weight {
				if g.Inject() {
					res.Timeline = append(res.Timeline, fmt.Sprintf("%v %s", c.Now(), g.Name))
				}
				break
			}
			pick -= g.Weight
		}
		c.Eng.After(sim.Time(float64(cfg.FaultEvery)*(0.5+nctx.rng.Float64())), inject)
	}
	c.Eng.After(cfg.FaultEvery, inject)

	c.Eng.RunUntil(cfg.Duration)
	load.Stop()
	// Quiesce: let recovery and truncation settle. Every episode healed
	// itself, but clear defensively so the audits never run over a
	// half-faulted fabric left by a bug in a generator.
	c.ClearNetworkFaults()
	c.RunFor(500 * sim.Millisecond)
	res.Commits, res.Aborts = load.Committed(), load.Aborted()
	// Liveness after the quiesce: no client of an alive member of the final
	// configuration still waits on an operation it began after the last
	// power restore, no call of such a member awaits its answer, and none
	// keeps a transaction awaiting truncation or a pooled truncate-record
	// slot toward a member.
	// Waiting on an answer owed by a machine that has left is not a legal
	// stuck state: the configuration without it fails the call.
	if last := latestMember(c); last != nil {
		for _, id := range c.AliveMachines() {
			if !last.Member(id) {
				continue
			}
			if n := load.Open(id, nctx.restoredAt); n > 0 {
				res.Violations = append(res.Violations,
					fmt.Sprintf("liveness: m%d still has %d operations open after the quiesce", id, n))
			}
			for _, call := range c.Machine(id).OpenCalls() {
				res.Violations = append(res.Violations, fmt.Sprintf("liveness: m%d has a call open after the quiesce: %s", id, call))
			}
			for _, tr := range c.Machine(id).OpenTruncations() {
				res.Violations = append(res.Violations, fmt.Sprintf("liveness: m%d keeps truncation work after the quiesce: %s", id, tr))
			}
		}
	}
	res.NoLogSpace, res.Unavailable = c.Counters.Get("tx_no_log_space"), c.Counters.Get("tx_unavailable")

	// finish closes out the run: it exports the recorded history and runs
	// the strict-serializability checker over it. Every return below funnels
	// through it, so even a run that already failed a liveness audit still
	// gets its history judged (and its dump preserved).
	finish := func() Result {
		if snapBad > 3 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("conservation-snapshot: ... and %d more bad snapshots", snapBad-3))
		}
		if c.Hist == nil {
			return res
		}
		h := c.Hist.Export()
		dump := cfg.HistDump
		if cfg.HistCheck {
			rep := history.Check(h)
			res.HistEvents = rep.Stats.Events
			res.HistCommitted = rep.Stats.Committed
			res.HistInferred = rep.Stats.InferredCommitted
			res.HistIndeterminate = rep.Stats.Indeterminate
			res.OpacityChecked = rep.Stats.OpacityChecked
			res.NonOpaque = rep.Stats.NonOpaque
			for _, v := range rep.Violations {
				res.Violations = append(res.Violations, "history: "+v.String())
			}
			if !rep.Ok() {
				dump = true
			}
		}
		if dump {
			res.HistoryJSON = history.Dump(h)
		}
		return res
	}

	// Final state-integrity audit: after quiesce it must come back
	// conclusive and clean. A divergence self-heals (repair + re-audit
	// inside the run) so the retry loop converges unless something is
	// genuinely broken; mid-run audits may skip, this one may not.
	if cfg.Audit {
		finalClean := false
		var lastReports []core.AuditReport
		for attempt := 0; attempt < 4 && !finalClean; attempt++ {
			var reports []core.AuditReport
			auditDone := false
			c.StartAudit(func(rs []core.AuditReport) { reports, auditDone = rs, true })
			c.RunFor(200 * sim.Millisecond)
			if !auditDone {
				res.Violations = append(res.Violations, "audit: final audit never completed")
				break
			}
			lastReports = reports
			nctx.tally(reports)
			conclusive, diverged := true, false
			for _, r := range reports {
				if !r.Conclusive {
					conclusive = false
				} else if !r.Clean {
					diverged = true
				}
			}
			if conclusive && !diverged {
				finalClean = true
				break
			}
			// Inconclusive, or diverged-and-repaired: settle and re-audit.
			c.RunFor(50 * sim.Millisecond)
		}
		if !finalClean {
			res.Violations = append(res.Violations, "audit: final post-quiesce audit not conclusively clean")
			for _, r := range lastReports {
				if !r.Conclusive || !r.Clean {
					res.Violations = append(res.Violations, "  "+r.String())
				}
			}
		}
	}

	if c.Tracer != nil {
		res.TraceJSON = c.Tracer.Export()
	}

	// --- Audits ---
	if len(c.LostRegions) > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("regions lost all replicas: %v", c.LostRegions))
	}
	// Agreement: the latest configuration's members agree on it. Evicted
	// machines (e.g. cut off by a healed partition) legitimately hold
	// stale configurations: precise membership keeps them harmless, and
	// they are excluded here as they would be replaced in production.
	member0 := latestMember(c)
	if member0 == nil {
		res.Violations = append(res.Violations, "no machine reached the latest configuration")
		return finish()
	}
	latest := member0.ConfigID()
	// Agreement judged against the LATEST configuration's membership (a
	// stale machine's own view would trivially include itself).
	for _, id := range c.AliveMachines() {
		m := c.Machine(id)
		if member0.Member(id) && m.ConfigID() != latest {
			res.Violations = append(res.Violations,
				fmt.Sprintf("member %d lags at config %d (latest %d)", id, m.ConfigID(), latest))
		}
	}
	// CM failover: every CM kill must have produced a configuration beyond
	// the one the dead CM led, led by an alive CM.
	if res.CMKills > 0 {
		if latest <= nctx.cmKillCfg {
			res.Violations = append(res.Violations,
				fmt.Sprintf("cm-failover: config stuck at %d after CM kill at config %d", latest, nctx.cmKillCfg))
		}
		if nctx.aliveCM() < 0 {
			res.Violations = append(res.Violations, "cm-failover: no alive CM after CM kill")
		}
	}
	// State integrity: without injected corruption, any conclusive digest
	// divergence is a false positive. With it, the flipped byte must have
	// been detected AND repaired — unless the corrupted replica was killed
	// or replaced, taking the corruption with it (vacuous, noted above).
	if cfg.Audit {
		if !cfg.InjectCorruption && res.AuditDivergences > 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("audit: %d divergences without injected corruption (false positives)", res.AuditDivergences))
		}
		if cfg.InjectCorruption && corruptMachine >= 0 {
			stillHosted := false
			for i, id := range c.RegionReplicas(corruptRegion) {
				if i > 0 && id == corruptMachine && c.Machine(id).Alive() {
					stillHosted = true
				}
			}
			if stillHosted && !res.CorruptionDetected {
				res.Violations = append(res.Violations, "audit: injected corruption never detected")
			}
			if res.CorruptionDetected && !res.CorruptionRepaired {
				res.Violations = append(res.Violations, "audit: injected corruption detected but not repaired")
			}
		}
	}

	// Conservation judged from replica state itself: sum the committed
	// payloads straight out of each account's primary replica memory,
	// bypassing the transaction layer entirely — a broken read path cannot
	// vouch for a broken commit path.
	var stateSum uint64
	stateReadable := true
	for i, a := range w.Accounts {
		b, err := c.PeekObject(a, 8)
		if err != nil {
			res.Violations = append(res.Violations,
				fmt.Sprintf("conservation-state: account %d unreadable from primary memory: %v", i, err))
			stateReadable = false
			break
		}
		stateSum += binary.LittleEndian.Uint64(b)
	}
	if stateReadable && stateSum != total {
		res.Violations = append(res.Violations,
			fmt.Sprintf("conservation-state: replica memory Σ=%d want %d", stateSum, total))
	}

	// Conservation + liveness: one transaction reads every account.
	reader := member0
	var sum uint64
	err = loadgen.RunSync(c, reader, 1, func(tx *core.Tx, done func(error)) {
		w.Sum(tx, func(s uint64, err error) {
			sum = s
			done(err)
		})
	})
	if err != nil {
		res.Violations = append(res.Violations, "liveness: "+err.Error())
		return finish()
	}
	if sum != total {
		res.Violations = append(res.Violations,
			fmt.Sprintf("conservation: Σ=%d want %d", sum, total))
	}
	// Liveness: a fresh transfer commits.
	err = loadgen.RunSync(c, reader, 0, func(tx *core.Tx, done func(error)) {
		tx.Read(w.Accounts[0], 8, func(data []byte, err error) {
			if err != nil {
				done(err)
				return
			}
			tx.Write(w.Accounts[0], data)
			done(nil)
		})
	})
	if err != nil {
		res.Violations = append(res.Violations, "liveness: post-chaos commit failed: "+err.Error())
		// One entry per machine of the cluster, printed in id order: result
		// lines must not depend on map iteration.
		report := reader.LogSpaceReport()
		for dst := 0; dst < len(report); dst++ {
			rep := report[dst]
			res.Violations = append(res.Violations,
				fmt.Sprintf("  logW[%d]: free=%d reserved=%d appended=%d consumed=%d",
					dst, rep[0], rep[1], rep[2], rep[3]))
		}
	}
	return finish()
}

// Campaign runs n seeds and returns all results.
func Campaign(cfg Config, n int) []Result {
	out := make([]Result, 0, n)
	for i := 0; i < n; i++ {
		run := cfg
		run.Seed = cfg.Seed + uint64(i)*7919
		out = append(out, Run(run))
	}
	return out
}
