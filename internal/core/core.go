// Package core implements the paper's primary contribution: FaRM's
// transaction, replication and failure-recovery protocols (§3–§5).
//
// A Cluster is a set of Machines on one simulated RDMA fabric. Each machine
// runs worker threads (event-driven, like FaRM's per-hardware-thread event
// loops), stores region replicas in non-volatile memory, holds one
// transaction-log ring buffer per peer, and participates in the lease,
// reconfiguration and recovery protocols. One machine acts as the
// configuration manager (CM); Zookeeper stores the configuration record.
//
// File map:
//
//	core.go      Options, CPU-cost constants, ids, errors
//	cluster.go   bootstrap, failure injection, test/bench observability
//	machine.go   per-machine state (the peer and region tables), message
//	             dispatch, log polling
//	transport.go typed message transport: handler registry, the one send path,
//	             the call table of requests awaiting an answer, resent by rule
//	cm.go        region allocation and placement at the CM
//	lease.go     failure detection: 3-way lease handshake, manager variants,
//	             one driver for flat and two-level leases (grantorOf)
//	tx.go        transaction API: writes, alloc/free, the read and write set
//	read.go      object reads as pooled state machines, lock-free reads
//	commit.go    the four-phase commit protocol (Figure 4)
//	apply.go     participant-side log record processing and truncation, the
//	             pools of decoded records and participant entries
//	truncate.go  coordinator-side lazy truncation, the id-window set
//	watchdog.go  stall sweep: stuck lock/validate phases, unanswered calls
//	reconfig.go  precise-membership reconfiguration (Figure 5)
//	join.go      cluster growth: a new machine joins by reconfiguration
//	recovery.go  transaction state recovery (Figure 6) over the region table
//	datarec.go   bulk data re-replication and allocator recovery
//	power.go     whole-cluster power failure and restoration
//	audit.go     replica state-integrity audits, localization and repair
//	client.go    external clients: requests from outside the configuration
//	order.go     sorted iteration over the sparse maps that remain
package core

import (
	"errors"

	"farm/internal/fabric"
	"farm/internal/regionmem"
	"farm/internal/sim"
	"farm/internal/trace"
)

// Transaction outcome errors.
var (
	// ErrConflict: optimistic concurrency control lost a race (lock or
	// validation failure); the application should retry.
	ErrConflict = errors.New("farm: transaction conflict")
	// ErrAborted: the transaction was aborted by failure recovery.
	ErrAborted = errors.New("farm: transaction aborted by recovery")
	// ErrNoSpace: log reservations or region allocation failed.
	ErrNoSpace = errors.New("farm: out of space")
	// ErrUnavailable: the target region is not currently accessible (its
	// primary is being recovered, or the machine is not in the
	// configuration).
	ErrUnavailable = errors.New("farm: region unavailable")
	// ErrReadLocked: a lock-free read observed a locked object and
	// exhausted its retries.
	ErrReadLocked = errors.New("farm: object locked")
)

// LeaseVariant selects the lease-manager implementation, reproducing the
// four configurations of Figure 16.
type LeaseVariant int

// Lease manager variants in decreasing order of robustness (§6.5). The
// zero value is deliberately the shipping configuration so Options default
// to it.
const (
	// LeaseUDThreadPri is the shipping configuration: dedicated thread at
	// highest user-space priority, interrupt driven, memory pinned.
	LeaseUDThreadPri LeaseVariant = iota
	// LeaseUDThread uses a dedicated lease-manager thread at normal
	// priority (subject to OS scheduling contention).
	LeaseUDThread
	// LeaseUD uses dedicated unreliable-datagram queue pairs but still
	// handles messages on a shared worker thread.
	LeaseUD
	// LeaseRPC piggybacks leases on the normal RPC path: lease messages
	// share queue pairs and worker threads with all other traffic.
	LeaseRPC
)

// String names the variant as in Figure 16's legend.
func (v LeaseVariant) String() string {
	switch v {
	case LeaseRPC:
		return "RPC"
	case LeaseUD:
		return "UD"
	case LeaseUDThread:
		return "UD+thread"
	case LeaseUDThreadPri:
		return "UD+thread+pri"
	default:
		return "unknown"
	}
}

// Worker-thread CPU costs, calibrated so that per-machine verb rates match
// Figure 2 when Threads is set to the paper's 30.
const (
	// cpuVerb: issue a one-sided verb and later reap its completion.
	cpuVerb = 2500 * sim.Nanosecond
	// cpuMsg: send or handle one message.
	cpuMsg = 2500 * sim.Nanosecond
	// cpuPerObject: extra cost per object processed in a log record (lock
	// CAS, in-place update, ...).
	cpuPerObject = 300 * sim.Nanosecond
	// cpuLocal: a local-memory object access.
	cpuLocal = 150 * sim.Nanosecond
)

// Options configures a cluster. Zero fields take defaults from
// DefaultOptions.
type Options struct {
	// NumMachines is the cluster size (the paper uses 90; simulations
	// default to 9 and report per-machine rates).
	NumMachines int
	// Replication is the number of copies per region, f+1. The paper runs
	// 3-way (one primary, two backups).
	Replication int
	// Threads is the number of worker threads per machine.
	Threads int
	// FailureDomains is the number of failure domains machines are spread
	// over round-robin; 0 places every machine in its own domain.
	FailureDomains int
	// MaxRegionsPerMachine caps how many region replicas one machine may
	// host (§3's capacity constraint; the paper expects ~250 2 GB regions
	// per 512 GB machine). 0 means unlimited.
	MaxRegionsPerMachine int

	// Layout is the region geometry.
	Layout regionmem.Layout
	// LogCapacity is the per-sender transaction-log ring size in bytes.
	LogCapacity int

	// Fabric carries the network model constants.
	Fabric fabric.Options

	// LeaseDuration is the failure-detection lease (10 ms in §6.1).
	LeaseDuration sim.Time
	// LeaseVariant selects the lease manager implementation.
	LeaseVariant LeaseVariant
	// LeaseGroupSize, when > 0, enables the two-level lease hierarchy
	// §5.1 prescribes for significantly larger clusters: machines are
	// grouped by id; the CM exchanges leases with group leaders and its
	// own group, leaders with their members. Worst-case detection time
	// doubles. 0 is flat leases: one group, led by the CM.
	LeaseGroupSize int

	// ValidateRPCThreshold is tr: primaries holding more than this many
	// read objects are validated over RPC instead of RDMA reads (§4).
	ValidateRPCThreshold int
	// TruncateFlushInterval bounds how lazily truncations are delivered
	// when no records are available to piggyback on.
	TruncateFlushInterval sim.Time

	// DataRecBlock is the data-recovery fetch granularity (8 KB in §5.4).
	DataRecBlock int
	// DataRecConcurrency is the number of concurrent fetches per thread
	// (1 normally; 4 in the aggressive mode of §6.4).
	DataRecConcurrency int

	// Trace configures the deterministic causality tracer
	// (internal/trace): spans per transaction and commit phase, recovery
	// timelines, fault annotations. Disabled by default; when disabled no
	// buffers are allocated and the hot paths pay one nil check.
	Trace trace.Options

	// History enables the client-side history recorder (internal/history):
	// every transaction's invoke/complete interval in simulated time, its
	// reads with the versions they observed, and its buffered writes are
	// recorded for offline strict-serializability checking. Disabled by
	// default; when disabled the recorder is nil and every hook in the
	// transaction hot path is a single nil check with no allocations.
	History bool

	// SkipReadValidation disables commit-time read validation (§4 step 2)
	// for read-write and read-only transactions alike. TEST-ONLY: it
	// deliberately breaks strict serializability so the history checker
	// can demonstrate it catches real consistency bugs; never enable it
	// outside that experiment.
	SkipReadValidation bool

	// Seed drives all randomness.
	Seed uint64
}

// DefaultOptions returns the scaled-down simulation defaults.
func DefaultOptions() Options {
	return Options{
		NumMachines:           9,
		Replication:           3,
		Threads:               8,
		FailureDomains:        0,
		Layout:                regionmem.DefaultLayout(),
		LogCapacity:           1 << 18,
		LeaseDuration:         10 * sim.Millisecond,
		LeaseVariant:          LeaseUDThreadPri,
		ValidateRPCThreshold:  4,
		TruncateFlushInterval: 200 * sim.Microsecond,
		DataRecBlock:          8 << 10,
		DataRecConcurrency:    1,
		Seed:                  1,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.NumMachines == 0 {
		o.NumMachines = d.NumMachines
	}
	if o.Replication == 0 {
		o.Replication = d.Replication
	}
	if o.Threads == 0 {
		o.Threads = d.Threads
	}
	if o.Layout.RegionSize == 0 {
		o.Layout = d.Layout
	}
	if o.LogCapacity == 0 {
		o.LogCapacity = d.LogCapacity
	}
	if o.LeaseDuration == 0 {
		o.LeaseDuration = d.LeaseDuration
	}
	if o.ValidateRPCThreshold == 0 {
		o.ValidateRPCThreshold = d.ValidateRPCThreshold
	}
	if o.TruncateFlushInterval == 0 {
		o.TruncateFlushInterval = d.TruncateFlushInterval
	}
	if o.DataRecBlock == 0 {
		o.DataRecBlock = d.DataRecBlock
	}
	if o.DataRecConcurrency == 0 {
		o.DataRecConcurrency = d.DataRecConcurrency
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// logRegionID returns the reserved region id of the transaction-log ring
// written by sender into a receiver's memory. The high bit separates the
// system region namespace from application regions.
func logRegionID(sender int) uint32 { return 0x80000000 | uint32(sender) }
