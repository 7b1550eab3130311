// Quickstart: boot a simulated FaRM cluster, commit a distributed
// transaction, read it back from another machine, and print what the
// commit cost in one-sided RDMA operations.
package main

import (
	"fmt"
	"log"

	"farm"
)

func main() {
	// Five machines, 3-way replication, machine 0 is the configuration
	// manager. Everything runs on a deterministic virtual clock.
	c := farm.NewCluster(farm.Options{NumMachines: 5, Seed: 42})
	c.MustCreateRegions(2)

	coordinator := c.Machine(1)

	// Allocate an object and commit it: the four-phase protocol (LOCK →
	// VALIDATE → COMMIT-BACKUP → COMMIT-PRIMARY) runs under the hood,
	// writing the paper's Table 1 records into replicated NVRAM logs.
	var addr farm.Addr
	snap := c.Net.Counters.Snapshot()
	err := c.Sync(func(done func(error)) {
		tx := coordinator.Begin(0)
		tx.Alloc(13, []byte("hello, farm!!"), nil, func(a farm.Addr, err error) {
			if err != nil {
				done(err)
				return
			}
			addr = a
			tx.Commit(done)
		})
	})
	if err != nil {
		log.Fatalf("commit: %v", err)
	}
	fmt.Printf("committed object at %v\n", addr)
	fmt.Printf("commit cost: %v\n", diffString(c.Net.Counters.Diff(snap)))

	// Lock-free read from a different machine: a single one-sided RDMA
	// read, no remote CPU, no commit phase.
	var got []byte
	err = c.Sync(func(done func(error)) {
		c.Machine(4).LockFreeRead(0, addr, 13, func(data []byte, err error) {
			got = append([]byte(nil), data...) // data is valid until this returns
			done(err)
		})
	})
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	fmt.Printf("machine 4 read: %q (virtual time %v)\n", got, c.Now())
}

func diffString(d map[string]uint64) string {
	return fmt.Sprintf("rdma_writes=%d rdma_reads=%d messages=%d local_writes=%d",
		d["rdma_write"], d["rdma_read"], d["msg_send"], d["local_write"])
}
