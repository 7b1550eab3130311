package core

import (
	"farm/internal/fabric"
	"farm/internal/proto"
	"farm/internal/ring"
	"farm/internal/sim"
)

// This file implements whole-cluster power-failure semantics (§2.1, §5):
// "We provide durability for all committed transactions even if the entire
// cluster fails or loses power: all committed state can be recovered from
// regions and logs stored in non-volatile DRAM."
//
// The distributed UPS saves each machine's entire memory to SSD and
// restores it on power-up, so a power failure behaves like a simultaneous
// pause of every process: memory (regions, logs, and process state)
// survives; everything in flight on the network is lost; all leases are
// long expired by the time power returns.
//
// Recovery after power restoration is a reconfiguration with unchanged
// membership in which every region's epochs are advanced: every in-flight
// transaction becomes a recovering transaction (its coordinator can no
// longer trust any ack it never received), logs are drained, lock recovery
// runs for every region, and the vote/decide protocol settles every
// outcome — the normal §5.3 machinery, applied to the whole address space.

// PowerFailure cuts power to every machine: CPUs stop, NICs stop
// answering, in-flight completions are lost. The UPS save preserves all
// memory.
func (c *Cluster) PowerFailure() {
	for _, m := range c.Machines {
		if m.alive {
			m.alive = false
			m.poweredOff = true
			m.nic.SetPowered(false)
			m.lease.stop()
		}
	}
	c.trace("power-failure", -1, 0)
	c.Counters.Inc("power_failures", 1)
}

// RestorePower brings every machine (previously alive or not — replaced
// hardware comes back empty-handed and simply rejoins with its preserved
// memory) back up and triggers power-failure recovery.
func (c *Cluster) RestorePower() {
	var initiator *Machine
	for _, m := range c.Machines {
		if !m.poweredOff {
			continue // was already dead before the outage: stays dead
		}
		m.poweredOff = false
		m.alive = true
		m.nic.SetPowered(true)
		// Commit reports parked behind a lapsed lease rest on completions
		// that predate the outage, and recovery may have aborted them while
		// this machine sat evicted behind a partition. The fresh lease
		// manager must not flush them: their outcome stays indeterminate.
		m.fencedReports = nil
		m.lease = newLeaseManager(m)
		m.lease.start()
		m.startTxStallSweep()
		m.reconfiguring = false
		// Audits in flight at the outage are void (their messages died with
		// the network); drop them and every fence before traffic resumes.
		m.abortAudits("power cycle")
		// Every in-flight transaction's completions were lost with the
		// outage: mark them recovering now so stray replies produced while
		// reprocessing logs below cannot drive the normal path.
		for _, ct := range m.inflight {
			if ct.phase != phaseDone {
				ct.recovering = true
			}
		}
	}
	c.reestablishRings()
	c.trace("power-restore", -1, 0)
	// The machine that believes it is CM initiates the recovery
	// reconfiguration; with identical memory images all machines agree.
	for _, m := range c.Machines {
		if m.IsCM() {
			initiator = m
			break
		}
	}
	if initiator == nil {
		for _, m := range c.Machines {
			if m.alive {
				initiator = m
				break
			}
		}
	}
	if initiator == nil {
		return
	}
	init := initiator
	c.Eng.After(sim.Millisecond, func() {
		if init.alive {
			init.suspectFull(-1, true)
		}
	})
}

// reestablishRings rebuilds every transaction-log ring after a power
// outage. The log *contents* are durable and are re-examined record by
// record (the §5.3 drain, done eagerly here); the ring endpoints' runtime
// state (tails, reservations, in-flight acks) refers to connections that
// no longer exist — exactly like RDMA queue pairs after a power cycle — so
// both halves are recreated from scratch.
func (c *Cluster) reestablishRings() {
	// 1. Re-examine everything still in the non-volatile logs. Processing
	// is idempotent: applied commits are version-gated, locks are owner-
	// tracked, and coordinators were marked recovering above.
	for _, m := range c.Machines {
		if !m.alive {
			continue
		}
		for _, p := range m.peers {
			lr := p.logR
			if lr.rd == nil {
				continue
			}
			for _, f := range lr.rd.Pending() {
				rec := m.records.Get()
				if proto.DecodeRecord(f.Payload, rec) != nil {
					m.putRecord(rec)
					continue
				}
				m.handleRecord(lr, rec, f.Seq, true)
			}
		}
	}
	// 2. Fresh ring state on both ends. The participant entries' frame
	// indexes name frames of the old readers, which share the memory the
	// fresh ones wrap: forget them, the rings are emptied. A kept lock
	// record's Values are those ring bytes, so it takes its own first.
	for _, m := range c.Machines {
		if !m.alive {
			continue
		}
		for _, rt := range m.pend {
			clear(rt.frames)
			rt.frames = rt.frames[:0]
			if rt.lock != nil {
				rt.lock.Detach()
			}
		}
		for src, p := range m.peers {
			if p.logR.rd != nil {
				// A ring nothing was ever written to is fresh already.
				mem := m.store.Region(toNVRAM(logRegionID(src)))
				clear(mem)
				p.logR = newLogReader(m, src, ring.NewReader(mem))
			}
			sender := c.Machines[src]
			toMe := sender.peer(m.ID)
			// Close the replaced writer so any retransmissions it still has
			// scheduled die with it instead of landing in the fresh ring.
			toMe.logW.Close()
			toMe.logW = ring.NewWriter(sender.nic, fabric.MachineID(m.ID),
				toNVRAM(logRegionID(src)), c.Opts.LogCapacity)
			// Reserve the pooled truncate-record slots again, one for each
			// transaction queued toward m and each still committing with
			// it; an aborted transaction whose ABORT acks died with the old
			// writer never queues, and its slot goes. Every queued id is
			// sent again: carriers in flight died with the old writer too.
			q := &toMe.truncQ
			q.pool, q.sent = len(q.txs), 0
			for _, ct := range sender.inflight {
				if g := ct.group(m.ID); g != nil {
					q.pool += g.res.pooled
				}
			}
			for range q.pool {
				toMe.logW.Reserve(truncateRecordSize)
			}
		}
	}
	// 3. Per-transaction reservations named slots in the old rings; drop
	// them (recovering transactions finish through messages, not records)
	// but the pooled slot, restored above, and flush undelivered
	// truncations so backups converge.
	for _, m := range c.Machines {
		if !m.alive {
			continue
		}
		for _, ct := range m.inflight {
			for i := range ct.groups {
				g := &ct.groups[i]
				g.res = resSet{pooled: g.res.pooled}
			}
		}
		for _, p := range m.peers {
			if len(p.truncQ.txs) > 0 {
				m.armTruncFlush(p)
			}
		}
	}
}

// PowerCycle is PowerFailure + outage + RestorePower, driving the
// simulation through the outage.
func (c *Cluster) PowerCycle(outage sim.Time) {
	c.PowerFailure()
	c.RunFor(outage)
	c.RestorePower()
}
