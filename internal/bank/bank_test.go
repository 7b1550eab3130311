package bank

import (
	"strings"
	"testing"

	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/proto"
	"farm/internal/sim"
)

// TestBankConservation drives the full mix for a while and then audits
// that the sum of all balances is exactly what Setup deposited — the
// transfer transactions must neither mint nor destroy money under
// concurrent conflicting commits.
func TestBankConservation(t *testing.T) {
	c := core.New(core.Options{NumMachines: 5, Seed: 3})
	const accounts, initial = 64, 100
	w, err := Setup(c, accounts, 3, initial)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	machines := []int{0, 1, 2, 3, 4}
	g := loadgen.New(c, w.Mix())
	g.Start(machines, 2, 2)
	c.RunFor(20 * sim.Millisecond)
	g.Stop()
	c.RunFor(5 * sim.Millisecond) // drain in-flight operations
	if g.Committed() == 0 {
		t.Fatal("no transactions committed")
	}
	var sum uint64
	err = loadgen.RunSync(c, c.Machine(0), 0, func(tx *core.Tx, done func(error)) {
		w.Sum(tx, func(s uint64, err error) {
			sum = s
			done(err)
		})
	})
	if err != nil {
		t.Fatalf("final audit: %v", err)
	}
	if sum != w.Total() {
		t.Fatalf("conservation violated: Σ=%d want %d after %d commits / %d aborts",
			sum, w.Total(), g.Committed(), g.Aborted())
	}
	t.Logf("bank: %d commits, %d aborts, Σ=%d", g.Committed(), g.Aborted(), sum)
}

// TestSetupRejectsFewerThanTwoAccounts: Transfer redraws its destination
// until it differs from its source, so a one-account workload would spin
// forever inside the simulator. Setup refuses it up front.
func TestSetupRejectsFewerThanTwoAccounts(t *testing.T) {
	for _, accounts := range []int{0, 1} {
		c := core.New(core.Options{NumMachines: 3, Seed: 1})
		if w, err := Setup(c, accounts, 1, 100); err == nil {
			t.Fatalf("Setup with %d accounts returned %d accounts and no error", accounts, len(w.Accounts))
		}
	}
}

// TestSumUnderConcurrentTransfers: Sum inside a committed read-only
// transaction is a serializable snapshot, so while the full mix runs every
// committed sum must equal Total. A Sum that cannot read an account names
// it.
func TestSumUnderConcurrentTransfers(t *testing.T) {
	c := core.New(core.Options{NumMachines: 5, Seed: 4})
	w, err := Setup(c, 8, 3, 100)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	machines := []int{0, 1, 2, 3, 4}
	mix := loadgen.New(c, w.Mix())
	mix.Start(machines, 1, 1)
	var sums, bad int
	probe := loadgen.New(c, func(m *core.Machine, thread int, _ *sim.Rand, done func(bool)) {
		tx := m.Begin(thread)
		w.Sum(tx, func(sum uint64, err error) {
			if err != nil {
				tx.Abort()
				done(false)
				return
			}
			tx.Commit(func(err error) {
				if err == nil {
					sums++
					if sum != w.Total() {
						bad++
					}
				}
				done(err == nil)
			})
		})
	})
	probe.Start(machines, 2, 2)
	c.RunFor(20 * sim.Millisecond)
	mix.Stop()
	probe.Stop()
	c.RunFor(5 * sim.Millisecond)
	if sums == 0 || mix.Committed() == 0 {
		t.Fatalf("nothing to judge: %d sums and %d mix operations committed", sums, mix.Committed())
	}
	if bad > 0 {
		t.Fatalf("%d of %d committed sums differ from %d", bad, sums, w.Total())
	}
	t.Logf("%d sums committed (%d aborted) beside %d mix operations", sums, probe.Aborted(), mix.Committed())

	lost := &Workload{C: c, Accounts: append(append([]proto.Addr{}, w.Accounts[:3]...), proto.Addr{Region: 1 << 20})}
	err = loadgen.RunSync(c, c.Machine(0), 0, func(tx *core.Tx, done func(error)) {
		lost.Sum(tx, func(_ uint64, err error) { done(err) })
	})
	if err == nil || !strings.Contains(err.Error(), "account 3") {
		t.Fatalf("Sum over a missing region: got %v, want an error naming account 3", err)
	}
}
