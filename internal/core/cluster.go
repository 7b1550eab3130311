package core

import (
	"fmt"

	"farm/internal/fabric"
	"farm/internal/history"
	"farm/internal/nvram"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
	"farm/internal/stats"
	"farm/internal/trace"
	"farm/internal/zk"
)

// TraceEvent is one recovery milestone, matching the annotations on the
// paper's Figures 9–11 (suspect, probe, zookeeper, config-commit,
// all-active, data-rec-start, region recoveries).
type TraceEvent struct {
	At      sim.Time
	Event   string
	Machine int
	Arg     int
}

// Cluster is a FaRM instance: machines, fabric, and the coordination
// service, all on one simulation engine.
type Cluster struct {
	Eng      *sim.Engine
	Net      *fabric.Network
	ZK       *zk.Service
	Opts     Options
	Machines []*Machine

	// Counters aggregates protocol-level counts (commits, aborts,
	// recovering transactions, lease expiries, ...).
	Counters *stats.Counters
	// recCells caches the "rec TYPE" counter cell per record type (see
	// recCell).
	recCells [proto.RecTruncate + 1]*uint64
	// cNoLogSpace and cUnavailable are the "tx_no_log_space" and
	// "tx_unavailable" cells: commits that failed before any record was
	// written (failTx), by cause. Conflict aborts count in "tx_aborted".
	cNoLogSpace, cUnavailable *uint64
	// cCPURecords, cCPURecv and cCPUSend are the "cpu_records_ns",
	// "cpu_msg_recv_ns" and "cpu_msg_send_ns" cells: worker time charged for
	// log-record handling, message receive (dispatchMsg) and message send
	// (sendMsg), added where each cost is enqueued.
	cCPURecords, cCPURecv, cCPUSend *uint64
	// cValidate* are the "validate_reads", "validate_rpcs" and
	// "validate_skipped" cells: objects validated by a header read (local or
	// one-sided), VALIDATE RPCs, and last reads left unvalidated.
	cValidateReads, cValidateRPCs, cValidateSkipped *uint64
	// MsgLatency holds per-message-type delivery latency (transport
	// enqueue → receiver dispatch), recorded by the message transport.
	MsgLatency *stats.LatencySet

	// DisableRecovery makes lease expiries count-only (the Figure 16
	// methodology: "We disabled recovery and counted the number of lease
	// expiry events").
	DisableRecovery bool

	// Trace holds recovery milestones; RegionRecoveredAt records when each
	// re-replicated region completed (the dashed line of Figures 9–10).
	Trace             []TraceEvent
	RegionRecoveredAt map[uint32]sim.Time

	// Tracer is the causality-tracing buffer set (nil unless
	// Opts.Trace.Enabled). Cluster-level milestones and fault injections
	// are mirrored into its cluster buffer so they annotate the same
	// timeline as the protocol spans.
	Tracer *trace.Set

	// Hist records every transaction's client-observable history for the
	// offline strict-serializability checker (nil unless Opts.History).
	Hist *history.Recorder

	// LostRegions lists regions that lost all replicas (a fatal condition
	// the CM signals, §5.2 step 4).
	LostRegions []uint32

	// clients counts attached external clients (their fabric ids).
	clients int
}

// New builds and boots a cluster: configuration 1 contains all machines
// with machine 0 as CM, stored in Zookeeper; leases are armed.
func New(opts Options) *Cluster {
	opts = opts.withDefaults()
	eng := sim.NewEngine(opts.Seed)
	c := &Cluster{
		Eng:               eng,
		Net:               fabric.NewNetwork(eng, opts.Fabric),
		Opts:              opts,
		Counters:          stats.NewCounters(),
		MsgLatency:        stats.NewLatencySet(),
		RegionRecoveredAt: make(map[uint32]sim.Time),
	}
	c.cNoLogSpace = c.Counters.Cell("tx_no_log_space")
	c.cUnavailable = c.Counters.Cell("tx_unavailable")
	c.cCPURecords = c.Counters.Cell("cpu_records_ns")
	c.cCPURecv = c.Counters.Cell("cpu_msg_recv_ns")
	c.cCPUSend = c.Counters.Cell("cpu_msg_send_ns")
	c.cValidateReads = c.Counters.Cell("validate_reads")
	c.cValidateRPCs = c.Counters.Cell("validate_rpcs")
	c.cValidateSkipped = c.Counters.Cell("validate_skipped")

	if opts.Trace.Enabled {
		c.Tracer = trace.NewSet(opts.Trace, opts.NumMachines)
	}
	if opts.History {
		c.Hist = history.NewRecorder()
	}

	cfg := proto.Config{ID: 1, CM: 0, Domains: make(map[uint16]int)}
	for i := 0; i < opts.NumMachines; i++ {
		cfg.Machines = append(cfg.Machines, uint16(i))
		if opts.FailureDomains > 0 {
			cfg.Domains[uint16(i)] = i % opts.FailureDomains
		} else {
			cfg.Domains[uint16(i)] = i
		}
	}
	c.ZK = zk.New(eng, &cfg)

	for i := 0; i < opts.NumMachines; i++ {
		m := c.newMachine(i)
		m.config = cfg
		m.trb = c.Tracer.Machine(i)
		c.Machines = append(c.Machines, m)
	}
	for _, m := range c.Machines {
		m.initLogs()
		m.lease = newLeaseManager(m)
	}
	c.Machines[0].cm = newCMState()
	for _, m := range c.Machines {
		m.lease.start()
		m.startTxStallSweep()
	}
	return c
}

// Machine returns machine i.
func (c *Cluster) Machine(i int) *Machine { return c.Machines[i] }

// Kill crashes a machine's FaRM process: its CPU stops, its NIC stops
// answering, and — per the non-volatile DRAM model — its memory contents
// survive untouched in the Store.
func (c *Cluster) Kill(i int) {
	m := c.Machines[i]
	if !m.alive {
		return
	}
	m.alive = false
	m.nic.SetPowered(false)
	m.lease.stop()
	c.trace("killed", i, 0)
	c.Counters.Inc("machines_killed", 1)
}

// KillDomain crashes every machine in a failure domain (the §6.4
// correlated-failure experiment: "We fail all the processes in one of
// these failure domains at the same time").
func (c *Cluster) KillDomain(domain int) int {
	killed := 0
	for _, m := range c.Machines {
		if m.alive && m.config.Domains[uint16(m.ID)] == domain {
			c.Kill(m.ID)
			killed++
		}
	}
	return killed
}

// Partition splits the network into connectivity groups.
func (c *Cluster) Partition(groups map[int]int) {
	g := make(map[fabric.MachineID]int, len(groups))
	for id, grp := range groups {
		g[fabric.MachineID(id)] = grp
	}
	c.Net.SetPartition(g)
}

// Heal restores full connectivity.
func (c *Cluster) Heal() { c.Net.HealPartition() }

// Fault-control API over the fabric's nemesis layer (fabric/nemesis.go).
// These are thin, traced wrappers: chaos schedules and tests drive faults
// through the Cluster so every injection shows up in the recovery trace
// alongside the milestones it provokes.

// CutLink cuts the directed link a→b only; b→a keeps delivering. Verbs
// whose request or completion leg crosses the cut time out.
func (c *Cluster) CutLink(a, b int) {
	c.Net.CutLink(fabric.MachineID(a), fabric.MachineID(b))
	c.trace("cut-link", a, b)
}

// HealLink restores the directed link a→b.
func (c *Cluster) HealLink(a, b int) {
	c.Net.HealLink(fabric.MachineID(a), fabric.MachineID(b))
	c.trace("heal-link", a, b)
}

// SetLinkFault installs an arbitrary fault (delay, drop, dup, cut) on the
// directed link a→b.
func (c *Cluster) SetLinkFault(a, b int, f fabric.LinkFault) {
	c.Net.SetLinkFault(fabric.MachineID(a), fabric.MachineID(b), f)
	c.trace("link-fault", a, b)
}

// IsolateInbound cuts every link INTO machine i: it can still send (its
// suspicions and lease requests go out) but hears nothing back — the
// asymmetric half-death lease-based membership must resolve by eviction.
func (c *Cluster) IsolateInbound(i int) {
	c.Net.SetMachineFault(fabric.MachineID(i), c.Net.MachineFaultOf(fabric.MachineID(i)).WithRxCut(true))
	c.trace("cut-inbound", i, 0)
}

// IsolateOutbound cuts every link OUT of machine i: it hears the cluster
// but nothing it says (lease requests included) gets through.
func (c *Cluster) IsolateOutbound(i int) {
	c.Net.SetMachineFault(fabric.MachineID(i), c.Net.MachineFaultOf(fabric.MachineID(i)).WithTxCut(true))
	c.trace("cut-outbound", i, 0)
}

// DegradeMachine puts machine i's NIC into gray-failure mode.
func (c *Cluster) DegradeMachine(i int, f fabric.MachineFault) {
	c.Net.SetMachineFault(fabric.MachineID(i), f)
	c.trace("degrade", i, 0)
}

// RestoreMachine clears machine i's NIC faults (direction cuts included).
func (c *Cluster) RestoreMachine(i int) {
	c.Net.ClearMachineFault(fabric.MachineID(i))
	c.trace("restore", i, 0)
}

// ClearNetworkFaults removes every injected fault: link faults, machine
// faults, and partitions.
func (c *Cluster) ClearNetworkFaults() {
	c.Net.ClearFaults()
	c.trace("clear-faults", -1, 0)
}

// RunFor advances the simulation by d.
func (c *Cluster) RunFor(d sim.Time) { c.Eng.RunFor(d) }

// Now returns the current virtual time.
func (c *Cluster) Now() sim.Time { return c.Eng.Now() }

// CreateRegions synchronously allocates n regions (running the simulation
// as needed) and returns their ids. It drives allocation requests from
// machine `from`. A locality hint of 0 means none.
func (c *Cluster) CreateRegions(from, n int, hint uint32) ([]uint32, error) {
	var out []uint32
	var lastErr error
	for i := 0; i < n; i++ {
		done := false
		c.Machines[from].AllocateRegion(hint, func(region uint32, err error) {
			done = true
			lastErr = err
			if err == nil {
				out = append(out, region)
			}
		})
		deadline := c.Eng.Now() + 10*sim.Second
		for !done && c.Eng.Now() < deadline {
			if !c.Eng.Step() {
				break
			}
		}
		if !done {
			return out, fmt.Errorf("farm: region allocation stalled")
		}
		if lastErr != nil {
			return out, lastErr
		}
	}
	// Let mapping announcements settle.
	c.RunFor(5 * sim.Millisecond)
	return out, nil
}

// trace appends a recovery milestone, mirrored as a fault/milestone
// annotation onto the causality timeline when tracing is enabled.
func (c *Cluster) trace(event string, machine, arg int) {
	if len(c.Trace) < 100000 {
		c.Trace = append(c.Trace, TraceEvent{At: c.Eng.Now(), Event: event, Machine: machine, Arg: arg})
	}
	if c.Tracer != nil {
		b := c.Tracer.Machine(machine)
		if b == nil {
			b = c.Tracer.Cluster()
		}
		b.Event("fault", event, c.Eng.Now(), 0, 0, int64(arg))
	}
}

// TraceTime returns the first occurrence of an event at or after `from`.
func (c *Cluster) TraceTime(event string, from sim.Time) (sim.Time, bool) {
	for _, e := range c.Trace {
		if e.Event == event && e.At >= from {
			return e.At, true
		}
	}
	return 0, false
}

func (c *Cluster) noteLostRegion(region uint32) {
	c.LostRegions = append(c.LostRegions, region)
	c.trace("region-lost", -1, int(region))
}

func (c *Cluster) noteRegionRecovered(region uint32) {
	c.RegionRecoveredAt[region] = c.Eng.Now()
	c.trace("region-recovered", -1, int(region))
}

// PeekObject reads the committed payload of addr directly out of the
// current primary replica's memory, bypassing the transaction layer
// entirely. It is an audit/test observability hook: invariants over final
// state (e.g. bank conservation) should be judged from what the replicas
// actually store, not from what transactions reported reading. Returns
// ErrUnavailable when no alive machine is primary for the region.
func (c *Cluster) PeekObject(addr proto.Addr, size int) ([]byte, error) {
	var best *Machine
	for _, m := range c.Machines {
		if !m.alive || m.primaryOf(addr.Region) != m.ID {
			continue
		}
		rep := m.replica(addr.Region)
		if rep == nil || !rep.primary {
			continue
		}
		if best == nil || m.config.ID > best.config.ID {
			best = m
		}
	}
	if best == nil {
		return nil, ErrUnavailable
	}
	rep := best.replica(addr.Region)
	start := int(addr.Off) + regionmem.HeaderSize
	if start+size > rep.mem.Size() {
		return nil, fabric.ErrBadAddress
	}
	out := make([]byte, size)
	rep.mem.ReadAt(out, start)
	return out, nil
}

// RegionMemory sums the region bytes every machine's store reserves and
// materializes: Data counts data regions, Flat the log rings, whose
// materialized bytes are the pages they hold and their machine's spares.
func (c *Cluster) RegionMemory() nvram.Usage {
	var sum nvram.Usage
	for _, m := range c.Machines {
		u := m.store.Usage()
		sum.Data += u.Data
		sum.DataMaterialized += u.DataMaterialized
		sum.Flat += u.Flat
		sum.FlatMaterialized += u.FlatMaterialized + m.ringSpares.HeldBytes()
	}
	return sum
}

// TotalCommitted sums committed transactions across machines.
func (c *Cluster) TotalCommitted() uint64 {
	var total uint64
	for _, m := range c.Machines {
		total += m.Committed
	}
	return total
}

// AliveMachines returns the ids of machines whose process is running.
func (c *Cluster) AliveMachines() []int {
	var out []int
	for _, m := range c.Machines {
		if m.alive {
			out = append(out, m.ID)
		}
	}
	return out
}
