package core

import (
	"testing"

	"farm/internal/history"
	"farm/internal/proto"
	"farm/internal/sim"
)

// TestHistoryRecordsTxLifecycle drives a few transactions with recording
// enabled and checks the events carry the facts the checker needs: invoke/
// complete intervals, read versions, write versions/values, outcomes.
func TestHistoryRecordsTxLifecycle(t *testing.T) {
	c, _ := testCluster(t, Options{History: true})
	if c.Hist == nil {
		t.Fatal("recorder not constructed")
	}
	m := c.Machine(1)

	addr := writeObject(t, c, m, []byte{1, 2, 3, 4}) // alloc+commit
	_ = readObject(t, c, m, addr, 4)                 // read-only commit

	// Update transaction.
	var done bool
	tx := m.Begin(2)
	tx.Read(addr, 4, func(data []byte, err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		tx.Write(addr, []byte{5, 6, 7, 8})
		tx.Commit(func(err error) {
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			done = true
		})
	})
	runUntil(t, c, sim.Second, func() bool { return done })

	// User abort.
	tx2 := m.Begin(0)
	var aborted bool
	tx2.Read(addr, 4, func(data []byte, err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		tx2.Abort()
		aborted = true
	})
	runUntil(t, c, sim.Second, func() bool { return aborted })

	h := c.Hist.Export()
	// Events: the region-allocation path runs no transactions, so we see
	// exactly our four (plus none from the system).
	if len(h.Events) != 4 {
		t.Fatalf("want 4 events, got %d: %+v", len(h.Events), h.Events)
	}
	alloc, ro, upd, ua := h.Events[0], h.Events[1], h.Events[2], h.Events[3]

	if alloc.Outcome != history.Committed || len(alloc.Writes) != 1 || !alloc.Writes[0].Alloc {
		t.Fatalf("alloc event: %+v", alloc)
	}
	if alloc.Writes[0].Addr != addr {
		t.Fatalf("alloc addr %v want %v", alloc.Writes[0].Addr, addr)
	}
	if alloc.Complete <= alloc.Invoke {
		t.Fatalf("alloc interval [%d,%d]", alloc.Invoke, alloc.Complete)
	}

	if ro.Outcome != history.Committed || len(ro.Reads) != 1 || len(ro.Writes) != 0 {
		t.Fatalf("read-only event: %+v", ro)
	}
	// The read observed the version the alloc installed: alloc observed
	// version +1.
	if ro.Reads[0].Version != alloc.Writes[0].Version+1 {
		t.Fatalf("read version %d, want %d", ro.Reads[0].Version, alloc.Writes[0].Version+1)
	}

	if upd.Outcome != history.Committed || len(upd.Reads) != 1 || len(upd.Writes) != 1 {
		t.Fatalf("update event: %+v", upd)
	}
	if upd.Writes[0].Version != upd.Reads[0].Version {
		t.Fatalf("update locks at its read version: %+v", upd)
	}
	if string(upd.Writes[0].Value) != string([]byte{5, 6, 7, 8}) {
		t.Fatalf("update value: %+v", upd.Writes[0])
	}

	if ua.Outcome != history.UserAborted || len(ua.Reads) != 1 {
		t.Fatalf("user-abort event: %+v", ua)
	}

	// The whole recorded run must pass the checker.
	rep := history.Check(h)
	if !rep.Ok() {
		t.Fatalf("checker flagged a clean run: %v", rep.Violations)
	}
}

// TestHistoryDisabledAllocsNothing pins the zero-cost contract: with
// recording disabled (hrec == nil) the history hooks on the transaction
// hot path allocate nothing.
func TestHistoryDisabledAllocsNothing(t *testing.T) {
	c := New(Options{NumMachines: 2, Seed: 1})
	if c.Hist != nil {
		t.Fatal("history unexpectedly enabled")
	}
	m := c.Machine(0)
	tx := &Tx{m: m} // bare Tx: only the nil-guarded hooks run
	addr := proto.Addr{Region: 1, Off: 64}
	val := []byte{1, 2, 3}
	allocs := testing.AllocsPerRun(200, func() {
		tx.histRead(addr, 7)
		tx.histWrite(addr, 7, val, false, false)
		tx.histFinish(history.Committed)
	})
	if allocs != 0 {
		t.Fatalf("history hooks with recording disabled allocate %.1f objects per call, want 0", allocs)
	}
}

// TestSkipReadValidationKnobBreaksValidation sanity-checks the test-only
// bug knob: a transaction whose read went stale commits anyway.
func TestSkipReadValidationKnobBreaksValidation(t *testing.T) {
	c, _ := testCluster(t, Options{SkipReadValidation: true})
	m := c.Machine(1)
	addr := writeObject(t, c, m, []byte{1, 0, 0, 0})
	other := writeObject(t, c, m, []byte{9, 0, 0, 0})

	// Tx A reads addr and then other, then Tx B updates addr, then A
	// commits read-only: the validation of addr that should abort A is
	// skipped. (Its last read, other, is never validated: a read-only
	// transaction serializes there.)
	txA := m.Begin(0)
	var readDone bool
	txA.Read(addr, 4, func(_ []byte, err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		txA.Read(other, 4, func(_ []byte, err error) {
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			readDone = true
		})
	})
	runUntil(t, c, sim.Second, func() bool { return readDone })

	var updated bool
	txB := m.Begin(1)
	txB.Read(addr, 4, func(data []byte, err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		txB.Write(addr, []byte{2, 0, 0, 0})
		txB.Commit(func(err error) {
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			updated = true
		})
	})
	runUntil(t, c, sim.Second, func() bool { return updated })

	var commitErr error
	var done bool
	txA.Commit(func(err error) { commitErr, done = err, true })
	runUntil(t, c, sim.Second, func() bool { return done })
	if commitErr != nil {
		t.Fatalf("SkipReadValidation should have let the stale read commit, got %v", commitErr)
	}
}
