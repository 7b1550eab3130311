// Package farm is a from-scratch reproduction of FaRM, the main-memory
// distributed computing platform of "No compromises: distributed
// transactions with consistency, availability, and performance"
// (Dragojević et al., SOSP 2015).
//
// It provides strictly serializable distributed ACID transactions over a
// global address space of replicated memory regions, with the paper's
// four-phase optimistic commit protocol (LOCK, VALIDATE, COMMIT-BACKUP,
// COMMIT-PRIMARY + lazy TRUNCATE), lease-based failure detection, precise-
// membership reconfiguration, and fast transaction/data/allocator
// recovery. The hardware substrate — RDMA NICs, non-volatile DRAM, a
// cluster of machines — is simulated by a deterministic discrete-event
// engine, so the whole distributed system runs in one process with a
// virtual clock (see DESIGN.md for the substitution argument).
//
// Quick start:
//
//	c := farm.NewCluster(farm.Options{NumMachines: 5})
//	c.MustCreateRegions(1)
//	m := c.Machine(0)
//	tx := m.Begin(0)
//	tx.Alloc(8, []byte("payload!"), nil, func(addr farm.Addr, err error) {
//	    tx.Commit(func(err error) { ... })
//	})
//	c.RunFor(farm.Millisecond)
//
// Everything is event-driven: operations take callbacks and the simulation
// advances only when the caller runs the engine (RunFor / RunUntil /
// WaitFor). One OS thread runs everything; there is no real concurrency to
// synchronize with.
package farm

import (
	"farm/internal/core"
	"farm/internal/proto"
	"farm/internal/sim"
)

// Re-exported core types. Aliases keep the public API thin while the
// implementation lives in internal packages.
type (
	// Options configures a cluster (machine count, replication factor,
	// lease duration, hardware model constants, ...).
	Options = core.Options
	// Machine is one FaRM machine: worker threads, hosted region replicas,
	// and a transaction coordinator.
	Machine = core.Machine
	// Tx is a transaction; Begin on a Machine takes one from the machine's
	// pool. It, and the bytes its reads hand out, are valid until its
	// Commit callback or Abort returns.
	Tx = core.Tx
	// Addr is a global address: (region, offset).
	Addr = proto.Addr
	// Time is a virtual duration/timestamp in nanoseconds.
	Time = sim.Time
	// LeaseVariant selects the lease-manager implementation (§6.5).
	LeaseVariant = core.LeaseVariant
	// TraceEvent is a recovery milestone (suspect, config-commit, ...).
	TraceEvent = core.TraceEvent
	// Client is an external (non-member) endpoint that accesses FaRM with
	// messages; its requests are lease-gated and blocked during
	// reconfigurations (§5.2).
	Client = core.Client
)

// Common durations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Lease-manager variants (Figure 16).
const (
	LeaseRPC         = core.LeaseRPC
	LeaseUD          = core.LeaseUD
	LeaseUDThread    = core.LeaseUDThread
	LeaseUDThreadPri = core.LeaseUDThreadPri
)

// Transaction and platform errors.
var (
	ErrConflict    = core.ErrConflict
	ErrAborted     = core.ErrAborted
	ErrNoSpace     = core.ErrNoSpace
	ErrUnavailable = core.ErrUnavailable
	ErrReadLocked  = core.ErrReadLocked
)

// DefaultOptions returns the scaled-down simulation defaults (9 machines,
// 3-way replication, 8 worker threads, 10 ms leases).
func DefaultOptions() Options { return core.DefaultOptions() }

// Cluster is a FaRM instance plus convenience helpers for driving the
// simulation.
type Cluster struct {
	*core.Cluster
}

// NewCluster boots a cluster: configuration 1 holds all machines with
// machine 0 as configuration manager, recorded in the (simulated)
// Zookeeper; leases are armed.
func NewCluster(opts Options) *Cluster {
	return &Cluster{Cluster: core.New(opts)}
}

// MustCreateRegions allocates n regions through the CM and panics on
// failure (bootstrap helper).
func (c *Cluster) MustCreateRegions(n int) []uint32 {
	regions, err := c.CreateRegions(0, n, 0)
	if err != nil {
		panic(err)
	}
	return regions
}

// WaitFor runs the simulation until pred returns true or the timeout
// elapses; it reports whether pred was satisfied.
func (c *Cluster) WaitFor(timeout Time, pred func() bool) bool {
	deadline := c.Eng.Now() + timeout
	for !pred() && c.Eng.Now() < deadline {
		if !c.Eng.Step() {
			break
		}
	}
	return pred()
}

// Sync runs fn and drives the simulation until its completion callback has
// fired, returning the error it was given. It is the blocking-style bridge
// used by examples and tests:
//
//	err := c.Sync(func(done func(error)) {
//	    tx := m.Begin(0)
//	    tx.Read(addr, 8, func(_ []byte, err error) {
//	        if err != nil { done(err); return }
//	        tx.Commit(done)
//	    })
//	})
func (c *Cluster) Sync(fn func(done func(error))) error {
	finished := false
	var result error
	fn(func(err error) {
		finished = true
		result = err
	})
	if !c.WaitFor(10*Second, func() bool { return finished }) {
		return ErrUnavailable
	}
	return result
}
