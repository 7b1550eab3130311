// Bank: serializable multi-object transactions under fire. Concurrent
// transfer transactions move money between accounts spread across the
// cluster while a machine is killed mid-run; the invariant Σbalances is
// checked at the end — if FaRM's atomicity, isolation or recovery were
// broken, money would appear or vanish.
package main

import (
	"fmt"
	"log"

	"farm"
	"farm/internal/bank"
	"farm/internal/loadgen"
)

const (
	accounts = 32
	initial  = 1_000
)

func main() {
	c := farm.NewCluster(farm.Options{
		NumMachines:   6,
		Seed:          7,
		LeaseDuration: 5 * farm.Millisecond,
	})
	w, err := bank.Setup(c.Cluster, accounts, 3, initial)
	if err != nil {
		log.Fatalf("open accounts: %v", err)
	}
	fmt.Printf("opened %d accounts × %d = total %d\n", accounts, initial, w.Total())

	// Two transfer clients on each of machines 0-3 (4 and 5 may die).
	g := loadgen.New(c.Cluster, w.Transfer)
	g.Start([]int{0, 1, 2, 3}, 2, 1)

	// Kill a machine while transfers are in flight; FaRM detects the
	// failure via leases, reconfigures, recovers in-flight transactions
	// and re-replicates the dead machine's regions.
	c.Eng.After(5*farm.Millisecond, func() {
		fmt.Printf("t=%v: killing machine 5\n", c.Now())
		c.Kill(5)
	})
	c.Eng.After(100*farm.Millisecond, g.Stop)
	c.RunFor(2 * farm.Second)

	// Audit: one transaction reads every account.
	var total uint64
	err = loadgen.RunSync(c.Cluster, c.Machine(0), 1, func(tx *farm.Tx, done func(error)) {
		w.Sum(tx, func(sum uint64, err error) {
			total = sum
			done(err)
		})
	})
	if err != nil {
		log.Fatalf("audit: %v", err)
	}
	fmt.Printf("operations committed: %d, aborted and retried: %d\n", g.Committed(), g.Aborted())
	fmt.Printf("recovery events: %s\n", recoverySummary(c))
	fmt.Printf("final total: %d (expected %d)\n", total, w.Total())
	if total != w.Total() {
		log.Fatal("INVARIANT VIOLATED: money created or destroyed")
	}
	fmt.Println("invariant holds: no money created or destroyed across the failure")
}

func recoverySummary(c *farm.Cluster) string {
	suspects, commits := 0, 0
	for _, e := range c.Trace {
		switch e.Event {
		case "suspect":
			suspects++
		case "config-commit":
			commits++
		}
	}
	return fmt.Sprintf("%d suspicions, %d configuration commits, %d regions re-replicated",
		suspects, commits, len(c.RegionRecoveredAt))
}
