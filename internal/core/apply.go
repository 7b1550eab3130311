package core

import (
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/trace"
)

// This file is the participant side of the commit protocol: processing of
// log records polled out of ring buffers (§4) and the services that answer
// a coordinator's calls (ALLOC-SLOT, MAPPING-REQ, VALIDATE). Message dispatch
// lives in transport.go's handler registry.

// recCell returns the "rec TYPE" counter's cell, resolved on the type's
// first record so counting one costs no string building or map lookup.
func (c *Cluster) recCell(t proto.RecordType) *uint64 {
	if c.recCells[t] == nil {
		c.recCells[t] = c.Counters.Cell("rec " + t.String())
	}
	return c.recCells[t]
}

// putRecord returns a record a log frame was decoded into to the pool,
// dropping the Values it held (ring bytes in place, or a detached or foreign
// record's own) while it waits. A pooled record is the machine's alone
// (DESIGN.md §12): it goes back when its handling ends or, kept as a
// participant entry's lock, with that entry (dropRemoteTx); it leaves the
// machine only as a Clone.
func (m *Machine) putRecord(r *proto.Record) {
	clear(r.Writes)
	m.records.Put(r)
}

// newRemoteTx makes transaction id's participant entry under key k, from the
// pool.
func (m *Machine) newRemoteTx(k mtl, id proto.TxID) *remoteTx {
	rt := m.remotes.Get()
	rt.id = id
	m.pend[k] = rt
	return rt
}

// dropRemoteTx ends a participant entry: it leaves pend and goes back to the
// pool, and its lock record with it. Its slices keep their capacity.
func (m *Machine) dropRemoteTx(k mtl, rt *remoteTx) {
	delete(m.pend, k)
	if rt.lock != nil {
		m.putRecord(rt.lock)
	}
	*rt = remoteTx{lockedObjs: rt.lockedObjs[:0], regionHint: rt.regionHint[:0], frames: rt.frames[:0]}
	m.remotes.Put(rt)
}

// handleRecord processes one decoded log record from the ring of lr.src.
// preDrain gives it drain semantics: records that were already in the log
// when draining started bypass the stale-record rejection, because the
// drain must examine them (§5.3 step 2). rec comes from the machine's pool:
// it becomes the participant entry's lock, or goes back when its handling
// ends.
func (m *Machine) handleRecord(lr *logReader, rec *proto.Record, seq uint64, preDrain bool) {
	if rec.Type == proto.RecTruncate {
		// Explicit truncation carrier: apply its piggyback and reclaim the
		// record itself immediately.
		*m.c.recCell(proto.RecTruncate)++
		m.applyPiggyback(rec)
		lr.rd.Truncate(seq)
		m.putRecord(rec)
		return
	}
	// §5.2 precise membership: reject log records from coordinators outside
	// the current configuration, independent of drain progress. The stale-
	// record gate below only engages once this configuration's drain has
	// run; between NEW-CONFIG receipt and the drain, an evicted coordinator
	// that never learned of its eviction could otherwise slip LOCK and
	// COMMIT records built on pre-eviction reads into live logs, and
	// recovery would then commit a lost update.
	if m.fromNonMember(rec.Tx, preDrain) {
		m.c.Counters.Inc("nonmember_record_rejected", 1)
		lr.rd.Truncate(seq)
		m.putRecord(rec)
		return
	}
	// Reject stale records from transactions that recovery already dealt
	// with (§5.3 step 2: "Log records for transactions with configuration
	// identifiers less than or equal to LastDrained are rejected").
	if !preDrain && rec.Tx.Config < m.config.ID && m.lastDrained >= m.config.ID && m.recordIsRecovering(rec) {
		m.c.Counters.Inc("stale_record_rejected", 1)
		lr.rd.Truncate(seq)
		m.applyPiggyback(rec)
		m.putRecord(rec)
		return
	}

	*m.c.recCell(rec.Type)++
	key := mtlOf(rec.Tx)
	rt := m.pend[key]
	if rt == nil {
		if m.truncWindow(rec.Tx.Coord()).has(rec.Tx.Local) {
			// A record for an already-truncated transaction (late commit-
			// primary after recovery truncated): drop it.
			lr.rd.Truncate(seq)
			m.applyPiggyback(rec)
			m.putRecord(rec)
			return
		}
		rt = m.newRemoteTx(key, rec.Tx)
	}
	rt.frames = append(rt.frames, logFrame{lr: lr, seq: seq})
	if len(rec.Regions) > 0 {
		rt.regionHint = append(rt.regionHint[:0], rec.Regions...)
	}

	kept := false
	switch rec.Type {
	case proto.RecLock:
		rt.saw |= proto.SawLock
		if rt.lock != nil {
			m.putRecord(rt.lock) // a replayed LOCK record replaces what it held
		}
		rt.lock, kept = rec, true
		m.processLock(rt, rec)
	case proto.RecCommitBackup:
		rt.saw |= proto.SawCommitBackup
		if rt.lock == nil {
			rt.lock, kept = rec, true // same payload as LOCK (§4 step 3)
		} else {
			// Merge writes this machine backs that the LOCK record (which
			// carries only primary-owned objects) did not include.
			mergeRecords(rt.lock, rec)
		}
	case proto.RecCommitPrimary:
		rt.saw |= proto.SawCommitPrimary
		m.applyCommitPrimary(rt)
	case proto.RecAbort:
		rt.saw |= proto.SawAbort
		m.releaseLocks(rt)
	}
	// The piggyback may truncate rt, and rec with it if kept: neither is
	// touched after.
	m.applyPiggyback(rec)
	if !kept {
		m.putRecord(rec)
	}
}

// fromNonMember is handleRecord's §5.2 gate: a record of transaction tx, not
// captured by a drain, of an older configuration's coordinator that is no
// longer a member.
func (m *Machine) fromNonMember(tx proto.TxID, preDrain bool) bool {
	return !preDrain && tx.Config < m.config.ID && !m.config.Member(tx.Machine)
}

// mergeRecords adds to dst, a participant entry's own lock record, the
// writes of src — another record of the same transaction — that dst lacks
// (a machine can be primary for one written region and backup for another;
// it then receives both LOCK and COMMIT-BACKUP records with different write
// subsets). The Values appended alias src's bytes: its frame's ring bytes,
// which the entry keeps until it truncates (src's frame is one of
// rt.frames), or a foreign record's own.
func mergeRecords(dst, src *proto.Record) {
	n := len(dst.Writes)
	for _, w := range src.Writes {
		if !writesAddr(dst.Writes[:n], w.Addr) {
			dst.Writes = append(dst.Writes, w)
		}
	}
}

func writesAddr(ws []proto.ObjectWrite, addr proto.Addr) bool {
	for i := range ws {
		if ws[i].Addr == addr {
			return true
		}
	}
	return false
}

// applyPiggyback processes the truncation metadata every record carries.
func (m *Machine) applyPiggyback(rec *proto.Record) {
	if rec.TruncLow > 0 {
		m.truncWindow(rec.Tx.Coord()).setLow(rec.TruncLow)
	}
	for _, packed := range rec.TruncIDs {
		thread, local := unpackTruncID(packed)
		m.truncateTx(proto.CoordKey{Machine: rec.Tx.Machine, Thread: thread}, local)
	}
}

// processLock attempts to lock every named object at its expected version
// (§4 step 1) and reports the outcome to the coordinator.
func (m *Machine) processLock(rt *remoteTx, rec *proto.Record) {
	ok := true
	held := len(rt.lockedObjs) // a replayed LOCK record finds earlier entries
	for _, w := range rec.Writes {
		rep := m.replica(w.Addr.Region)
		if rep == nil || !rep.primary || !rep.holds(w.Addr.Off) {
			ok = false
			break
		}
		if rep.audit != nil {
			// A state-integrity audit holds the region at a quiescent
			// point; the coordinator sees an ordinary conflict and retries.
			m.c.Counters.Inc("audit_fence_conflict", 1)
			ok = false
			break
		}
		if !rep.mem.TryLock(int(w.Addr.Off), w.Version) {
			ok = false
			break
		}
		rep.lockOwner[w.Addr.Off] = rec.Tx
		rt.lockedObjs = append(rt.lockedObjs, w.Addr)
	}
	if !ok {
		// Roll back partial locks; the coordinator will write ABORT.
		for _, addr := range rt.lockedObjs[held:] {
			rep := m.replica(addr.Region)
			rep.mem.Unlock(int(addr.Off))
			delete(rep.lockOwner, addr.Off)
		}
		rt.lockedObjs = rt.lockedObjs[:0]
		rt.lockRefused = held == 0
		m.c.Counters.Inc("lock_failed", 1)
	}
	if int(rec.Tx.Machine) == m.ID {
		m.handOffLockVerdict(rec.Tx, ok) // the coordinator is this machine: no LOCK-REPLY
		return
	}
	m.send(int(rec.Tx.Machine), proto.PooledLockReply(&m.lockReplies, rec.Tx, ok))
}

// lockVerdict carries a LOCK verdict to the thread the coordinator acts on
// it from: the outcome of a LOCK record this machine wrote into its own log,
// from where the record landed to the coordinator's thread — what a remote
// primary says in a LOCK-REPLY message, without the message — and the
// verdict of a LOCK-REPLY received. The coordinator acts on it there, not
// inside the landing or the delivery upcall (DESIGN.md §5). Pooled like
// msgTask, runFn bound once, and recycled before the verdict is acted on; a
// hand-off whose machine dies first is dropped with the rest of that
// thread's work, never recycled.
type lockVerdict struct {
	m     *Machine
	src   int // the primary that gave it
	tx    proto.TxID
	ok    bool
	ctx   trace.Ctx
	runFn func()
}

func (m *Machine) handOffLockVerdict(tx proto.TxID, ok bool) {
	v := m.newLockVerdict(m.ID, tx, ok, m.curCtx)
	// A thread id off the wire only ever picks a thread (ByIndex is modular).
	m.OnThread(int(tx.Thread), cpuLocal, v.runFn)
}

// newLockVerdict returns a pooled carrier of tx's lock verdict. A received
// LOCK-REPLY travels in one too (dispatchMsg): its sender takes the reply
// back with the frame that carried it, as soon as the delivery upcall
// returns, so only the verdict may outlive the upcall.
func (m *Machine) newLockVerdict(src int, tx proto.TxID, ok bool, ctx trace.Ctx) *lockVerdict {
	v := m.verdicts.Get()
	v.src, v.tx, v.ok, v.ctx = src, tx, ok, ctx
	return v
}

// answerTask carries an RPC-REPLY's answer from the delivery upcall to the
// worker that hands it to the call table, for the same reason: a pooled
// reply goes back to its sender with its frame. Pooled like lockVerdict.
type answerTask struct {
	m     *Machine
	id    uint64
	body  interface{}
	ctx   trace.Ctx
	runFn func()
}

func (a *answerTask) run() {
	m, id, body, ctx := a.m, a.id, a.body, a.ctx
	a.body, a.ctx = nil, trace.Ctx{}
	m.answers.Put(a)
	if !m.alive {
		return
	}
	if m.trb != nil && ctx.Valid() {
		prev := m.curCtx
		m.curCtx = ctx
		m.answer(id, body)
		m.curCtx = prev
		return
	}
	m.answer(id, body)
}

func (v *lockVerdict) run() {
	m, src, tx, ok, ctx, prev := v.m, v.src, v.tx, v.ok, v.ctx, v.m.curCtx
	m.verdicts.Put(v)
	if !m.alive {
		return
	}
	m.curCtx = ctx
	m.onLockReply(src, tx, ok)
	m.curCtx = prev
}

// applyCommitPrimary installs a committed transaction's writes at regions
// this machine is primary for: update in place, bump version, unlock (§4
// step 4).
func (m *Machine) applyCommitPrimary(rt *remoteTx) {
	if rt.applied || rt.lock == nil {
		return
	}
	rt.applied = true
	for _, w := range rt.lock.Writes {
		rep := m.replica(w.Addr.Region)
		if rep == nil || !rep.primary {
			continue
		}
		// Version-gated for recovery replays: never regress an object.
		cur := rep.mem.ReadHeader(int(w.Addr.Off))
		if regionmem.Version(cur) <= w.Version {
			m.commitWrite(rep, int(w.Addr.Off), w.Version+1, w.Allocated, w.Value)
			delete(rep.lockOwner, w.Addr.Off)
			if !w.Allocated {
				m.freeSlotAtPrimary(rep, int(w.Addr.Off))
			}
		} else if owner, ok := rep.lockOwner[w.Addr.Off]; ok && owner == rt.id {
			// Already applied by an earlier replay: just drop our lock.
			// Another transaction's lock (and its owner entry) must be
			// left strictly alone — its own decision releases it.
			rep.mem.Unlock(int(w.Addr.Off))
			delete(rep.lockOwner, w.Addr.Off)
		}
	}
	rt.lockedObjs = rt.lockedObjs[:0]
}

// freeSlotAtPrimary returns a freed object's slot to the allocator,
// queueing it while allocator recovery is scanning (§5.5).
func (m *Machine) freeSlotAtPrimary(rep *replica, off int) {
	if rep.allocRecovering {
		rep.freeQ = append(rep.freeQ, off)
		return
	}
	if rep.alloc != nil {
		rep.alloc.Free(off)
	}
}

// releaseLocks undoes a transaction's locks after an ABORT record.
func (m *Machine) releaseLocks(rt *remoteTx) {
	for _, addr := range rt.lockedObjs {
		rep := m.replica(addr.Region)
		if rep == nil {
			continue
		}
		if owner, ok := rep.lockOwner[addr.Off]; ok && owner == rt.id {
			rep.mem.Unlock(int(addr.Off))
			delete(rep.lockOwner, addr.Off)
		}
	}
	rt.lockedObjs = rt.lockedObjs[:0]
}

// truncateTx performs §4 step 5 at a participant: backups apply the
// transaction's writes to their replicas, the transaction's log frames are
// reclaimed, its participant entry is recycled, and the id joins the
// truncated set.
func (m *Machine) truncateTx(key proto.CoordKey, local uint64) {
	k := mtl{m: key.Machine, t: key.Thread, local: local}
	if rt := m.pend[k]; rt != nil {
		if rt.saw&(proto.SawAbort|proto.SawAbortRecovery) == 0 {
			m.applyAtBackup(rt)
		}
		for _, f := range rt.frames {
			f.lr.rd.Truncate(f.seq)
		}
		m.dropRemoteTx(k, rt)
	}
	m.truncWindow(key).add(local)
}

// applyAtBackup applies a committed transaction's writes to regions this
// machine backs. Updates are version-gated so replay and reordering are
// harmless.
func (m *Machine) applyAtBackup(rt *remoteTx) {
	if rt.lock == nil {
		return
	}
	for _, w := range rt.lock.Writes {
		rep := m.replica(w.Addr.Region)
		if rep == nil || rep.primary {
			continue
		}
		cur := rep.mem.ReadHeader(int(w.Addr.Off))
		if w.Version+1 > regionmem.Version(cur) {
			m.commitWrite(rep, int(w.Addr.Off), w.Version+1, w.Allocated, w.Value)
		}
	}
}

// recordIsRecovering evaluates the §5.3 step 3 predicate for a record
// using the region epochs distributed in NEW-CONFIG. Participants see only
// written regions; the coordinator additionally checks its read set.
func (m *Machine) recordIsRecovering(rec *proto.Record) bool {
	if rec.Tx.Config >= m.config.ID {
		return false
	}
	if !m.config.Member(rec.Tx.Machine) {
		return true
	}
	for _, region := range rec.Regions {
		rm := m.mapping(region)
		if rm == nil || rm.LastReplicaChange >= m.config.ID {
			return true
		}
	}
	return false
}

// onAllocSlot serves a slot-reservation request at the region's primary
// (the free lists live only there, §5.5).
func (m *Machine) onAllocSlot(from int, req *allocSlotReq) {
	if !m.isMember(from) {
		return // §5.2: no slot reservations for non-member coordinators
	}
	off, ver, err := m.allocSlotLocal(req.Region, req.Size)
	m.send(from, &rpcReply{ID: req.ID, Body: &allocSlotResp{
		Region: req.Region, OK: err == nil, Full: err == ErrNoSpace, Off: off, Version: ver,
	}})
}

// onMappingReq answers a region-placement cache miss with a MAPPING-RESP
// that echoes the call id.
func (m *Machine) onMappingReq(from int, req *proto.MappingReq) {
	// Echo the region even on a miss so the requester's waiters wake (and
	// retry with backoff) instead of hanging until some unrelated refresh.
	resp := proto.MappingResp{ID: req.ID, Map: proto.RegionMap{Region: req.Region}}
	if m.cm != nil {
		if rm := m.cm.mapping(req.Region); rm != nil {
			resp.OK, resp.Map = true, *rm
		}
	} else if rm := m.mapping(req.Region); rm != nil {
		resp.OK, resp.Map = true, *rm
	}
	m.send(from, &resp)
}

// onValidateReq validates a read set over RPC at the primary (§4 step 2).
func (m *Machine) onValidateReq(src int, req *proto.ValidateReq) {
	if !m.isMember(src) {
		return // §5.2: no validation service for non-member coordinators
	}
	ok := len(req.Versions) == len(req.Addrs)
	for i := 0; ok && i < len(req.Addrs); i++ {
		addr := req.Addrs[i]
		rep := m.replica(addr.Region)
		ok = rep != nil && rep.primary && rep.holds(addr.Off) &&
			validHeaderWord(rep.mem.ReadHeader(int(addr.Off)), req.Versions[i])
	}
	m.send(src, &proto.ValidateReply{ID: req.ID, OK: ok})
}
