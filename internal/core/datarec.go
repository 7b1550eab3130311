package core

import (
	"bytes"

	"farm/internal/audit"
	"farm/internal/fabric"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
	"farm/internal/trace"
)

// This file implements bulk data recovery (§5.4) and allocator state
// recovery (§5.5). Both are deliberately delayed until ALL-REGIONS-ACTIVE
// and paced so the latency-critical lock recovery and the foreground
// workload are not disturbed.

// dataRecInterval is the pacing interval of data recovery: a thread's next
// fetch starts at a random point within it (§5.4).
const dataRecInterval = 4 * sim.Millisecond

// startDataRecovery re-replicates one region at a freshly assigned backup.
// Its first step is a call asking the primary for every block header, so
// each block that lands is merged object by object (applyRecoveredBlock).
// Then worker threads divide the region and fetch blocks from the primary
// with one-sided reads, each thread scheduling its next read at a random
// point within the pacing interval (§5.4).
func (m *Machine) startDataRecovery(rep *replica) {
	rm := m.mapping(rep.id)
	if rm == nil || len(rm.Replicas) == 0 || int(rm.Replicas[0]) == m.ID {
		return
	}
	primary, cfg := int(rm.Replicas[0]), m.config.ID
	if m.trb != nil {
		rep.recCtx = m.trb.Begin("recovery", "re-replication", m.c.Eng.Now(),
			trace.RecoveryTraceBit|cfg, 0, int64(rep.id))
	}
	m.learnHeadersOf(rep, primary, rep.recCtx, func() { m.fetchRegion(rep, primary) })
}

// learnHeadersOf asks replica dst of rep's region for its class table in a
// call resent until answered, learns the answer and calls then; the
// configuration's end fails the call and leaves the work to the next one.
func (m *Machine) learnHeadersOf(rep *replica, dst int, ctx trace.Ctx, then func()) {
	req := &proto.BlockHeaderReq{ConfigID: m.config.ID, Region: rep.id}
	req.ID = m.callResent(dst, req, m.recoveryResend(ctx), func(resp interface{}, err error) {
		if err == nil {
			m.learnHeaders(rep, resp.(*proto.BlockHeaderResp).Headers)
			then()
		}
	})
	m.sendCtx(dst, req, ctx)
}

// fetchRegion runs the paced one-sided fetches of data recovery once the
// block headers are in.
func (m *Machine) fetchRegion(rep *replica, primary int) {
	unit := m.c.Opts.DataRecBlock
	if unit%m.c.Opts.Layout.BlockSize != 0 {
		unit += m.c.Opts.Layout.BlockSize - unit%m.c.Opts.Layout.BlockSize
	}
	units := (rep.size + unit - 1) / unit
	threads := m.c.Opts.Threads
	chains := min(threads*m.c.Opts.DataRecConcurrency, units)
	remaining := units
	cfgAtStart := m.config.ID
	// A chain's fetches run one after another, each applied before the
	// next is issued, so one buffer per chain holds them all.
	bufs := make([][]byte, chains)

	var fetch func(chain, u int)
	fetch = func(chain, u int) {
		if !m.alive || m.config.ID != cfgAtStart || u >= units {
			return
		}
		off := u * unit
		n := unit
		if off+n > rep.size {
			n = rep.size - off
		}
		// Pacing: start at a random point within the interval (§5.4).
		m.c.Eng.After(m.c.Eng.Rand().Duration(dataRecInterval), func() {
			if !m.alive || m.config.ID != cfgAtStart {
				return
			}
			m.pool.ByIndex(chain).Do(cpuVerb, func() {
				if !m.alive {
					return
				}
				if bufs[chain] == nil {
					bufs[chain] = make([]byte, unit)
				}
				m.nic.ReadInto(fabric.MachineID(primary), toNVRAM(rep.id), off, bufs[chain][:n], func(data []byte, err error) {
					if !m.alive || m.config.ID != cfgAtStart {
						return
					}
					if err != nil {
						// Primary failed mid-recovery: the next
						// reconfiguration restarts data recovery.
						return
					}
					cost := cpuLocal + sim.Time(n/256)*cpuPerObject/8
					m.pool.ByIndex(chain).Do(cost, func() {
						if !m.alive {
							return
						}
						m.applyRecoveredBlock(rep, off, data)
						remaining--
						if remaining == 0 {
							m.finishDataRecovery(rep)
							return
						}
						fetch(chain, u+chains)
					})
				})
			})
		})
	}
	for c := 0; c < chains; c++ {
		fetch(c, c)
	}
	if units == 0 {
		m.finishDataRecovery(rep)
	}
}

// applyRecoveredBlock merges fetched bytes object by object: an object is
// copied only if its recovered version is newer than the local one, using
// a lock/update/unlock sequence so races with concurrent transaction
// commits are safe (§5.4). Each copy keeps the replica's incremental
// digest current (unfold old slot state, fold new) so a freshly recovered
// backup is immediately auditable.
//
// In audit-repair mode (rep.repairing) the version gate widens to "any
// difference": the primary's bytes win wherever the masked header word or
// payload disagrees, which is what heals silent corruption that left the
// version untouched. Repair skips the incremental updates — the corrupted
// old bytes were never folded in, so unfolding them would skew the sum —
// and the digest is reseeded from a fresh scan in finishDataRecovery.
//
// A block the class table does not name when its bytes land is skipped:
// the primary's table, fetched before the first block, names every block
// holding a committed object (learnClasses), so this one was first filled
// after the answer, by a COMMIT-BACKUP record that brings its class here
// (DESIGN.md §5, "Data recovery").
//
// The merge writes only slots it takes, so it materializes only blocks
// holding a newer object.
func (m *Machine) applyRecoveredBlock(rep *replica, base int, data []byte) {
	layout := m.c.Opts.Layout
	for rel := 0; rel < len(data); rel += layout.BlockSize {
		class := rep.mem.Class((base + rel) / layout.BlockSize)
		if class == 0 {
			continue
		}
		blockEnd := min(rel+layout.BlockSize, len(data))
		for so := rel; so+class <= blockEnd; so += class {
			recovered := regionmem.ReadHeader(data, so)
			off := base + so
			local := rep.mem.ReadHeader(off)
			take := regionmem.Version(recovered) > regionmem.Version(local)
			if !take && rep.repairing {
				take = regionmem.MaskLock(recovered) != regionmem.MaskLock(local) ||
					!bytes.Equal(rep.mem.Payload(off, class-regionmem.HeaderSize),
						data[so+regionmem.HeaderSize:so+class])
			}
			if !take {
				continue
			}
			// Lock with CAS, update, unlock.
			if regionmem.Locked(local) {
				continue // being updated by a newer transaction
			}
			if !rep.repairing {
				rep.dig.Unfold(off, regionmem.MaskLock(local), rep.mem.Payload(off, class-regionmem.HeaderSize))
			}
			rep.mem.WriteAt(data[so:so+class], off)
			// Recovered state is stored unlocked.
			rep.mem.WriteHeader(off,
				regionmem.Compose(regionmem.Version(recovered), false, regionmem.Allocated(recovered)))
			if !rep.repairing {
				rep.dig.Fold(off, regionmem.MaskLock(rep.mem.ReadHeader(off)), rep.mem.Payload(off, class-regionmem.HeaderSize))
			}
		}
	}
}

// finishDataRecovery marks the replica whole again. An audit repair ends
// here too: the digest is reseeded from a ground-truth scan (force-copied
// slots bypassed the incremental updates) and the repair call is answered,
// so the auditing primary re-verifies; it does not count as a re-replication.
func (m *Machine) finishDataRecovery(rep *replica) {
	if !rep.needsDataRecovery {
		return
	}
	rep.needsDataRecovery = false
	if rep.recCtx.Valid() {
		m.trb.End(rep.recCtx, m.c.Eng.Now(), int64(rep.size))
		rep.recCtx = trace.Ctx{}
	}
	if rep.repairing {
		rep.repairing = false
		rep.dig.Reseed(audit.ScanRegion(rep.mem))
		m.c.Counters.Inc("audit_repairs_completed", 1)
		if p := m.primaryOf(rep.id); p >= 0 && p != m.ID {
			m.send(p, &proto.AuditRepairDone{ID: rep.repairID, Config: m.config.ID, Region: rep.id, OK: true})
		}
		return
	}
	m.c.Counters.Inc("regions_rereplicated", 1)
	m.c.noteRegionRecovered(rep.id)
}

// allocScanBatch objects every allocScanInterval is the pace of allocator
// recovery (§5.5).
const (
	allocScanBatch    = 100
	allocScanInterval = 100 * sim.Microsecond
)

// startAllocRecovery rebuilds a promoted primary's slab free lists by
// scanning allocation bits, paced at allocScanBatch objects per
// allocScanInterval. Deallocations queue until the scan completes. It
// first learns every backup's class table: a block the old primary claimed
// that no commit filled may be classed at a backup only, and claiming it
// afresh at another slot size would split the copies (DESIGN.md §5).
func (m *Machine) startAllocRecovery(rep *replica) {
	cfgAtStart := m.config.ID
	var actx trace.Ctx
	if m.trb != nil {
		actx = m.trb.Begin("recovery", "alloc-recovery", m.c.Eng.Now(),
			trace.RecoveryTraceBit|cfgAtStart, 0, int64(rep.id))
	}
	waiting := len(m.mapping(rep.id).Replicas) // the backups' answers, then the call below
	scan := func() {
		if waiting--; waiting > 0 {
			return
		}
		batches := (rep.mem.ScanWork() + allocScanBatch - 1) / allocScanBatch
		m.c.Eng.After(sim.Time(batches)*allocScanInterval, func() {
			if !m.alive || m.config.ID != cfgAtStart || rep.alloc != nil {
				return
			}
			rep.alloc = regionmem.NewAllocator(m.c.Opts.Layout, rep.mem)
			// Allocator recovery doubles as a digest reseed point: the
			// promoted primary's digest is recomputed from a full scan.
			rep.dig.Reseed(audit.ScanRegion(rep.mem))
			rep.alloc.OnNewBlock(rep.foldClaimed)
			rep.allocRecovering = false
			if actx.Valid() {
				m.trb.End(actx, m.c.Eng.Now(), 0)
			}
			m.c.Counters.Inc("alloc_recovered", 1)
		})
	}
	for _, b := range m.mapping(rep.id).Replicas[1:] {
		m.learnHeadersOf(rep, int(b), actx, scan)
	}
	scan()
}
