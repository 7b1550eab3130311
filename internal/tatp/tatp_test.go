package tatp

import (
	"testing"

	"farm/internal/core"
	"farm/internal/history"
	"farm/internal/kv"
	"farm/internal/loadgen"
	"farm/internal/sim"
)

func setup(t *testing.T, n uint64) (*core.Cluster, *Workload) {
	t.Helper()
	c := core.New(core.Options{NumMachines: 5, Seed: 31})
	w, err := Setup(c, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	return c, w
}

func TestPopulation(t *testing.T) {
	c, w := setup(t, 200)
	// Every subscriber row must exist.
	missing := 0
	fired := 0
	for s := uint64(0); s < 200; s += 7 {
		w.Subscriber.LockFreeGet(c.Machine(int(s)%5), 0, kv.U64Key(s), func(_ []byte, ok bool, err error) {
			fired++
			if err != nil || !ok {
				missing++
			}
		})
	}
	c.RunFor(50 * sim.Millisecond)
	if fired == 0 || missing != 0 {
		t.Fatalf("fired=%d missing=%d", fired, missing)
	}
}

func TestEachTransactionType(t *testing.T) {
	c, w := setup(t, 100)
	rng := sim.NewRand(4)
	run := func(name string, op func(done func(bool))) {
		t.Helper()
		completed, ok := false, false
		op(func(r bool) { completed, ok = true, r })
		deadline := c.Eng.Now() + 2*sim.Second
		for !completed && c.Eng.Now() < deadline {
			if !c.Eng.Step() {
				break
			}
		}
		if !completed {
			t.Fatalf("%s never completed", name)
		}
		if !ok {
			t.Logf("%s reported not-ok (acceptable for probabilistic rows)", name)
		}
	}
	m := c.Machine(1)
	run("GetSubscriberData", func(d func(bool)) { w.GetSubscriberData(m, 0, 5, d) })
	run("GetAccessData", func(d func(bool)) { w.GetAccessData(m, 0, 5, rng, d) })
	run("GetNewDestination", func(d func(bool)) { w.GetNewDestination(m, 0, 5, rng, d) })
	run("UpdateSubscriberData", func(d func(bool)) { w.UpdateSubscriberData(m, 1, 6, rng, d) })
	run("UpdateLocation", func(d func(bool)) { w.UpdateLocation(m, 1, 7, rng, d) })
	run("InsertCallForwarding", func(d func(bool)) { w.InsertCallForwarding(m, 2, 8, rng, d) })
	run("DeleteCallForwarding", func(d func(bool)) { w.DeleteCallForwarding(m, 2, 8, rng, d) })
}

// TestGetNewDestinationReadsAFacilityOnce: GET_NEW_DESTINATION of an active
// facility whose three call-forwarding rows and special-facility row sit in
// their home buckets, run on a machine that is primary of none of them, makes
// three one-sided reads: the special-facility row; the facility's
// neighbourhood, which the first call-forwarding lookup reads and the other
// two find in the transaction's buffers; and the validation of the
// special-facility row (the neighbourhood read was the last and ran alone).
// With the rows hashed apart it made seven.
func TestGetNewDestinationReadsAFacilityOnce(t *testing.T) {
	c, w := setup(t, 100)
	c.RunFor(20 * sim.Millisecond)
	remote := func(m *core.Machine, tbl *kv.Table, key []byte) bool {
		return m.PrimaryOf(tbl.BucketAddr(key).Region) != m.ID
	}
	judged := 0
	for s := uint64(0); s < 100; s++ {
		for sf := 1; sf <= 4; sf++ {
			for _, m := range c.Machines {
				if !remote(m, w.SpecialFac, sfKey(s, sf)) || !remote(m, w.CallFwd, cfKey(s, sf, 0)) ||
					!remote(m, w.CallFwd, cfKey(s, sf, 8)) || !remote(m, w.CallFwd, cfKey(s, sf, 16)) {
					continue
				}
				reads, home := c.Net.Counters.Get("rdma_read"), c.Counters.Get("kv_found_home")
				done := false
				w.getNewDestination(m, 0, s, sf, func(ok bool) {
					if !ok {
						t.Errorf("subscriber %d facility %d on m%d aborted", s, sf, m.ID)
					}
					done = true
				})
				for !done && c.Eng.Step() {
				}
				if c.Counters.Get("kv_found_home")-home != 4 {
					continue // inactive, fewer than three rows, or a row off its home
				}
				judged++
				if n := c.Net.Counters.Get("rdma_read") - reads; n != 3 {
					t.Errorf("subscriber %d facility %d on m%d: %d one-sided reads, want 3", s, sf, m.ID, n)
				}
			}
		}
	}
	if judged < 20 {
		t.Fatalf("only %d facility reads judged", judged)
	}
	t.Logf("%d facility reads judged", judged)
}

func TestUpdateLocationPersists(t *testing.T) {
	c, w := setup(t, 50)
	rng := sim.NewRand(9)
	// Run several UPDATE_LOCATIONs from a machine that is not the primary
	// so function shipping triggers, then check the field changed.
	m := c.Machine(2)
	doneCount := 0
	var next func(s uint64)
	next = func(s uint64) {
		if s >= 10 {
			return
		}
		w.UpdateLocation(m, 0, s, rng, func(ok bool) {
			if !ok {
				t.Errorf("update location of %d failed", s)
			}
			doneCount++
			next(s + 1)
		})
	}
	next(0)
	deadline := c.Eng.Now() + 2*sim.Second
	for doneCount < 10 && c.Eng.Now() < deadline {
		c.Eng.Step()
	}
	if doneCount != 10 {
		t.Fatalf("completed %d/10", doneCount)
	}
	// With 10 subscribers spread over buckets in many regions, at least
	// one primary must have been remote from machine 2.
	if w.FunctionShipped == 0 {
		t.Error("no update was function-shipped")
	}
}

func TestMixRunsAndCommits(t *testing.T) {
	c, w := setup(t, 300)
	g := loadgen.New(c, w.Mix())
	tput, med, p99 := g.RunPoint([]int{0, 1, 2, 3, 4}, 4, 2, 5*sim.Millisecond, 30*sim.Millisecond)
	if tput < 50000 {
		t.Fatalf("TATP throughput %v/s too low", tput)
	}
	if med <= 0 || p99 < med {
		t.Fatalf("latencies: %v %v", med, p99)
	}
	abortRate := float64(g.Aborted()) / float64(g.Committed()+g.Aborted())
	if abortRate > 0.2 {
		t.Fatalf("abort rate %.2f too high", abortRate)
	}
	t.Logf("TATP: %.0f tx/s med=%v p99=%v shipped=%d aborts=%.3f",
		tput, med, p99, w.FunctionShipped, abortRate)
}

// TestMixIsStrictlySerializable judges the TATP mix with the history
// checker: nine machines run it over 40 subscribers, so that the 2–4 row
// read-only GET_NEW_DESTINATION often meets the updates of the same rows —
// a facility's call-forwarding rows share a bucket, so its inserts and
// deletes contend too — and the recorded history must be strictly
// serializable. After the drain a cluster-wide audit must find every
// region's replicas equal. The same run with read validation switched off
// must be convicted, or the judge sees nothing this workload can break.
func TestMixIsStrictlySerializable(t *testing.T) {
	run := func(skipValidation bool) *history.Report {
		c := core.New(core.Options{NumMachines: 9, Seed: 3, History: true, SkipReadValidation: skipValidation})
		w, err := Setup(c, 40, 6)
		if err != nil {
			t.Fatal(err)
		}
		g := loadgen.New(c, w.Mix())
		g.RunPoint([]int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 4, 2, sim.Millisecond, 20*sim.Millisecond)
		c.RunFor(5 * sim.Millisecond) // what was in flight finishes
		var audits []core.AuditReport
		done := false
		c.StartAudit(func(rs []core.AuditReport) { audits, done = rs, true })
		for !done && c.Eng.Step() {
		}
		if len(audits) == 0 {
			t.Fatalf("skip validation %v: the audit reported no region", skipValidation)
		}
		for _, a := range audits {
			if !a.Conclusive || !a.Clean {
				t.Fatalf("skip validation %v: %s", skipValidation, a)
			}
		}
		return history.Check(c.Hist.Export())
	}
	rep := run(false)
	t.Logf("%d committed transactions judged, %d aborted", rep.Stats.Committed, rep.Stats.Aborted)
	if !rep.Ok() {
		t.Fatalf("history not strictly serializable:\n%s", rep)
	}
	if rep := run(true); rep.Ok() {
		t.Fatalf("with read validation off, %d committed transactions passed the checker", rep.Stats.Committed)
	}
}

// TestTATPSurvivesFailureWithIntegrity kills m3 under the mix: every
// subscriber row stays readable, and every operation a survivor started
// finishes — an UPDATE_LOCATION shipped to m3 included.
func TestTATPSurvivesFailureWithIntegrity(t *testing.T) {
	c := core.New(core.Options{NumMachines: 5, Seed: 59, LeaseDuration: 5 * sim.Millisecond})
	w, err := Setup(c, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	mix, open := w.Mix(), 0 // open: survivors' operations not yet finished
	g := loadgen.New(c, func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
		survivor := m.ID != 3
		if survivor {
			open++
		}
		mix(m, thread, rng, func(ok bool) {
			if survivor {
				open--
			}
			done(ok)
		})
	})
	g.Start([]int{0, 1, 2, 3, 4}, 3, 2)
	c.RunFor(20 * sim.Millisecond)
	shipped := w.FunctionShipped
	c.Kill(3)
	c.RunFor(300 * sim.Millisecond)
	g.Stop()
	c.RunFor(20 * sim.Millisecond)
	if open != 0 || w.FunctionShipped == shipped {
		t.Fatalf("%d survivors' operations never finished (%d shipped after the kill)", open, w.FunctionShipped-shipped)
	}

	// Every subscriber row must still be readable through a survivor.
	missing, fired := 0, 0
	for s := uint64(0); s < 300; s += 5 {
		w.Subscriber.LockFreeGet(c.Machine(1), 0, kv.U64Key(s), func(_ []byte, ok bool, err error) {
			fired++
			if err != nil || !ok {
				missing++
			}
		})
	}
	deadline := c.Now() + 2*sim.Second
	for fired < 60 && c.Now() < deadline {
		if !c.Eng.Step() {
			break
		}
	}
	if missing > 0 || fired == 0 {
		t.Fatalf("fired=%d missing=%d after failure", fired, missing)
	}
	if g.Committed() == 0 {
		t.Fatal("no commits")
	}
}
