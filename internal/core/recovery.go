package core

import (
	"cmp"
	"hash/fnv"
	"slices"

	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
	"farm/internal/trace"
)

// This file implements transaction state recovery (§5.3 / Figure 6):
//
//  1. block access to recovering regions (set up in reconfig.go)
//  2. drain logs, record LastDrained
//  3. find recovering transactions; backups send NEED-RECOVERY
//  4. lock recovery at the (possibly new) primary, sharded by coordinator
//     thread; regions become active as soon as their locks are recovered
//  5. replicate lock records to backups that miss them
//  6. vote: region primaries send RECOVERY-VOTE to the transaction's
//     recovery coordinator; explicit REQUEST-VOTE after a 250 µs timeout
//  7. decide, then COMMIT/ABORT-RECOVERY and TRUNCATE-RECOVERY
//
// The recovery coordinator is the original coordinator if it is still in
// the configuration, otherwise a machine chosen by hashing the transaction
// id over the membership — a deterministic rule every machine evaluates
// identically, which is what the paper's consistent hashing provides.

// earlyNeed buffers NEED-RECOVERY messages that arrive before this
// machine's NEW-CONFIG-COMMIT.
type earlyNeed struct {
	src int
	msg *proto.NeedRecovery
}

// recoveryState is per-machine, per-configuration recovery progress.
type recoveryState struct {
	configID uint64
	drained  bool
	// regions under recovery at this machine (we are the primary).
	regions map[uint32]*regionRecovery
	// votes collected by this machine as a recovery coordinator.
	votes map[proto.TxID]*voteCollector
	// regionsActiveSent guards the REGIONS-ACTIVE report.
	regionsActiveSent bool
	// ctx is the open "drain" span (§5.3 step 2) when tracing is on.
	ctx trace.Ctx
}

// recoveryTraceCtx tags a send with the current configuration's recovery
// timeline. It is for sends made from timer or thread-pool closures, where
// the dispatch-scoped curCtx of the message that caused them is gone.
func (m *Machine) recoveryTraceCtx() trace.Ctx {
	if m.trb == nil {
		return trace.Ctx{}
	}
	return trace.Ctx{Trace: trace.RecoveryTraceBit | m.config.ID}
}

// regionRecovery drives steps 3–6 for one region at its primary.
type regionRecovery struct {
	region uint32
	// needed lists backups whose NEED-RECOVERY has not arrived yet.
	needed map[int]bool
	txs    map[mtl]*recTx
	// phase: 0 waiting (drain+NEED-RECOVERY), 1 fetching/locking,
	// 2 active (locks recovered; replication/votes may still be running).
	phase int
	// ctx is the open "lock-recovery" span for this region.
	ctx trace.Ctx
	// pendingLock resumes lock acquisition once record fetches complete.
	pendingLock func()
}

// recTx is one recovering transaction's state at a region primary.
type recTx struct {
	id  proto.TxID
	saw uint8 // merged over all replicas of the region
	// sawBy[machine] is each replica's own view, for replication targets.
	sawBy            map[int]uint8
	lock             *proto.Record
	fetchOutstanding int
	replOutstanding  int
	voted            bool
}

// voteCollector gathers votes at the recovery coordinator.
type voteCollector struct {
	id           proto.TxID
	regions      map[uint32]proto.Vote
	known        map[uint32]bool
	decided      bool
	commit       bool
	participants map[int]bool
	// acked records which participants acknowledged the decision. A set —
	// not a countdown — because decisions are retransmitted (late voters,
	// QUERY-DECISION) and duplicate acks must not trip truncation early:
	// a premature TRUNCATE-RECOVERY at a participant that never saw an
	// ABORT-RECOVERY would apply the aborted writes at its backups.
	acked map[int]bool
	// ctx is the "vote-decide" span, open from the collector's creation to
	// the decision; decision fan-out reuses it as the causal context.
	ctx trace.Ctx
}

// startTxRecovery runs on NEW-CONFIG-COMMIT.
func (m *Machine) startTxRecovery(configID uint64) {
	m.recov = &recoveryState{
		configID: configID,
		regions:  make(map[uint32]*regionRecovery),
		votes:    make(map[proto.TxID]*voteCollector),
	}
	if m.trb != nil {
		m.recov.ctx = m.trb.Begin("recovery", "drain", m.c.Eng.Now(),
			trace.RecoveryTraceBit|configID, 0, int64(len(m.peers)))
	}
	// Replay NEED-RECOVERY messages that raced ahead of our commit.
	early := m.earlyNeedRec
	m.earlyNeedRec = nil
	for _, e := range early {
		if e.msg.Config == configID {
			m.onNeedRecovery(e.src, e.msg)
		}
	}
	// Step 2: drain all logs. Records present in the rings at this instant
	// are processed as part of the drain; records landing from now on see
	// LastDrained = current configuration and are rejected if they belong
	// to recovering transactions.
	m.lastDrained = configID
	outstanding := 1 // sentinel so the barrier cannot fire early
	done := func() {
		outstanding--
		if outstanding > 0 {
			return
		}
		if !m.alive || m.recov == nil || m.recov.configID != m.config.ID {
			return
		}
		m.recov.drained = true
		if m.recov.ctx.Valid() {
			m.trb.End(m.recov.ctx, m.c.Eng.Now(), 0)
			m.recov.ctx = trace.Ctx{}
		}
		m.findRecoveringTxs()
	}
	for _, p := range m.peers {
		outstanding++
		m.drainLog(p.logR, done)
	}
	done()
}

// drainLog polls one ring and processes everything found, bypassing the
// stale-record rejection (these records were in the log at drain time and
// must be examined, §5.3 step 2). The ring's records are spread over the
// workers (dispatchShards), so cb runs once every worker has passed the
// barrier item queued here, behind its earlier batches of the same ring.
func (m *Machine) drainLog(lr *logReader, cb func()) {
	m.decodeFrames(lr)
	left := len(m.pollShards)
	m.dispatchShards(lr, true, func() {
		if left--; left == 0 {
			cb()
		}
	})
}

// findRecoveringTxs is step 3: classify every transaction with records in
// our logs; route NEED-RECOVERY messages; set up per-region recovery.
func (m *Machine) findRecoveringTxs() {
	rs := m.recov
	// Initialize region recovery for every region we are (now) primary
	// for. Regions whose replicas are all unchanged never instantiate
	// recovery state, matching the paper's "only recovering transactions
	// go through transaction recovery".
	for i := range m.regions {
		id, rm, rep := uint32(i), m.regions[i].mapping, m.regions[i].rep
		if rm == nil || rep == nil || !rep.primary {
			continue
		}
		if rm.LastReplicaChange < m.config.ID && !m.configShrank {
			continue
		}
		if rs.regions[id] != nil {
			continue // created on demand by an early NEED-RECOVERY
		}
		rr := &regionRecovery{region: id, needed: make(map[int]bool), txs: make(map[mtl]*recTx)}
		for _, b := range rm.Replicas[1:] {
			if int(b) != m.ID {
				rr.needed[int(b)] = true
			}
		}
		rs.regions[id] = rr
	}

	// Classify our participant-side transactions.
	needByPrimary := make(map[int]map[uint32][]proto.TxSeen)
	for _, k := range sortedKeys(m.pend, mtlCmp) {
		rt := m.pend[k]
		if !m.txIsRecovering(rt) {
			continue
		}
		for _, region := range rt.regions() {
			rm := m.mapping(region)
			if rm == nil || len(rm.Replicas) == 0 {
				continue
			}
			// What we saw is evidence for the regions our records write to
			// (step 3: transactions "that updated the region"), not for every
			// region they list: a record carries the writes of the regions
			// its receiver replicated when it was written, and this
			// reconfiguration may have made us a replica of another. Were
			// our COMMIT-BACKUP to count there, a region none of whose
			// replicas ever received the write would vote commit-backup and
			// the transaction commit without it.
			if m.replica(region) == nil || !remoteTxTouches(rt, region) {
				continue
			}
			if int(rm.Replicas[0]) == m.ID {
				// We are the primary: fold into region recovery directly.
				rr := rs.regions[region]
				if rr == nil {
					rr = &regionRecovery{region: region, needed: make(map[int]bool), txs: make(map[mtl]*recTx)}
					for _, b := range rm.Replicas[1:] {
						if int(b) != m.ID {
							rr.needed[int(b)] = true
						}
					}
					rs.regions[region] = rr
				}
				rr.add(m.ID, rt.id, rt.saw, rt.lock.Clone())
			} else {
				// We are a backup: report to the primary (step 3).
				p := int(rm.Replicas[0])
				if needByPrimary[p] == nil {
					needByPrimary[p] = make(map[uint32][]proto.TxSeen)
				}
				needByPrimary[p][region] = append(needByPrimary[p][region],
					proto.TxSeen{Tx: rt.id, Saw: rt.saw})
			}
		}
	}
	// Every backup sends NEED-RECOVERY for every recovering region it
	// backs, even when it has nothing, so primaries can detect completion.
	for i := range m.regions {
		id, rm, rep := uint32(i), m.regions[i].mapping, m.regions[i].rep
		if rm == nil || rep == nil || rep.primary || len(rm.Replicas) == 0 || int(rm.Replicas[0]) == m.ID {
			continue
		}
		if rm.LastReplicaChange < m.config.ID && !m.configShrank {
			continue
		}
		p := int(rm.Replicas[0])
		if needByPrimary[p] == nil {
			needByPrimary[p] = make(map[uint32][]proto.TxSeen)
		}
		if _, ok := needByPrimary[p][id]; !ok {
			needByPrimary[p][id] = nil
		}
	}
	for _, p := range sortedKeys(needByPrimary, cmp.Compare[int]) {
		byRegion := needByPrimary[p]
		for _, region := range sortedKeys(byRegion, cmp.Compare[uint32]) {
			m.sendCtx(p, &proto.NeedRecovery{Config: m.config.ID, Region: region, Txs: byRegion[region]},
				m.recoveryTraceCtx())
		}
	}
	m.c.Counters.Inc("recovering_tx_found", uint64(countRecovering(rs)))

	// Coordinator side: arm vote collection for our own recovering
	// transactions so read-set-only recoveries make progress too.
	for _, id := range sortedKeys(m.inflight, txIDCmp) {
		if ct := m.inflight[id]; ct.recovering {
			m.armVoteCollector(ct.id, ct.writeRegions, ct.participantSet())
		}
	}
	for _, region := range sortedKeys(rs.regions, cmp.Compare[uint32]) {
		m.maybeRecoverRegion(rs.regions[region])
	}
	m.maybeAllPrimariesActive()
}

func countRecovering(rs *recoveryState) int {
	seen := make(map[mtl]bool)
	for _, rr := range rs.regions {
		for k := range rr.txs {
			seen[k] = true
		}
	}
	return len(seen)
}

// regions returns the region list a participant knows for a transaction.
func (rt *remoteTx) regions() []uint32 {
	if rt.lock != nil {
		return rt.lock.Regions
	}
	return rt.regionHint
}

// txIsRecovering is the participant-side §5.3 predicate.
func (m *Machine) txIsRecovering(rt *remoteTx) bool {
	if rt.id.Config >= m.config.ID {
		return false
	}
	if !m.config.Member(rt.id.Machine) {
		return true
	}
	for _, region := range rt.regions() {
		rm := m.mapping(region)
		if rm == nil || rm.LastReplicaChange >= m.config.ID {
			return true
		}
	}
	return false
}

// add merges one replica's knowledge of a recovering transaction into the
// region's recovery state.
func (rr *regionRecovery) add(from int, id proto.TxID, saw uint8, lock *proto.Record) {
	k := mtlOf(id)
	rt := rr.txs[k]
	if rt == nil {
		rt = &recTx{id: id, sawBy: make(map[int]uint8)}
		rr.txs[k] = rt
	}
	rt.saw |= saw
	rt.sawBy[from] |= saw
	if rt.lock == nil && lock != nil {
		rt.lock = lock
	}
}

// onNeedRecovery merges a backup's report (step 3 → step 4 hand-off).
func (m *Machine) onNeedRecovery(src int, nr *proto.NeedRecovery) {
	if nr.Config != m.config.ID {
		return
	}
	if m.recov == nil || m.recov.configID != m.config.ID {
		// NEW-CONFIG-COMMIT has not reached us yet; replay once it does.
		m.earlyNeedRec = append(m.earlyNeedRec, earlyNeed{src: src, msg: nr})
		return
	}
	rr := m.recov.regions[nr.Region]
	if rr == nil {
		// We did not classify this region as recovering (e.g. only the
		// coordinator died); create recovery state on demand.
		rm := m.mapping(nr.Region)
		rep := m.replica(nr.Region)
		if rm == nil || rep == nil || !rep.primary {
			return
		}
		rr = &regionRecovery{region: nr.Region, needed: make(map[int]bool), txs: make(map[mtl]*recTx)}
		for _, b := range rm.Replicas[1:] {
			if int(b) != m.ID {
				rr.needed[int(b)] = true
			}
		}
		// Fold in our own matching pending transactions.
		for _, rt := range m.pend {
			if !m.txIsRecovering(rt) {
				continue
			}
			for _, r := range rt.regions() {
				if r == nr.Region && remoteTxTouches(rt, r) {
					rr.add(m.ID, rt.id, rt.saw, rt.lock.Clone())
				}
			}
		}
		m.recov.regions[nr.Region] = rr
	}
	for _, ts := range nr.Txs {
		rr.add(src, ts.Tx, ts.Saw, nil)
	}
	delete(rr.needed, src)
	m.maybeRecoverRegion(rr)
}

// maybeRecoverRegion runs step 4 once the logs are drained and every
// backup reported: fetch missing lock records, then acquire locks; the
// region becomes active immediately after (§5.3's fast path), with record
// replication and voting continuing in the background.
func (m *Machine) maybeRecoverRegion(rr *regionRecovery) {
	if m.recov == nil || !m.recov.drained || len(rr.needed) > 0 || rr.phase != 0 {
		return
	}
	rr.phase = 1
	if m.trb != nil {
		rr.ctx = m.trb.Begin("recovery", "lock-recovery", m.c.Eng.Now(),
			trace.RecoveryTraceBit|m.config.ID, 0, int64(rr.region))
	}
	rep := m.replica(rr.region)
	if rep == nil {
		return
	}
	var lockAll func()
	lockAll = func() {
		for _, rt := range rr.txs {
			if rt.fetchOutstanding > 0 {
				return
			}
		}
		// Shard lock recovery across threads by coordinator thread id and
		// charge the CPU there (§5.3 step 4).
		work := make([][]*recTx, m.c.Opts.Threads)
		pendingThreads := 0
		for _, k := range sortedKeys(rr.txs, mtlCmp) {
			rt := rr.txs[k]
			th := int(rt.id.Thread) % len(work)
			if work[th] == nil {
				pendingThreads++
			}
			work[th] = append(work[th], rt)
		}
		finish := func() {
			pendingThreads--
			if pendingThreads > 0 {
				return
			}
			rr.phase = 2
			m.endLockRecSpan(rr)
			m.activateRegion(rr.region)
			m.replicateAndVote(rr)
		}
		if pendingThreads == 0 {
			finish()
			return
		}
		for th, txs := range work {
			if txs == nil {
				continue
			}
			cost := sim.Time(len(txs)) * (cpuPerObject*4 + cpuLocal)
			m.pool.ByIndex(th).Do(cost, func() {
				if !m.alive {
					return
				}
				for _, rt := range txs {
					m.recoverLocks(rep, rt)
				}
				finish()
			})
		}
	}
	// Fetch lock records we are missing but some backup saw (step 4).
	for _, k := range sortedKeys(rr.txs, mtlCmp) {
		rt := rr.txs[k]
		if rt.lock != nil || rt.saw&(proto.SawLock|proto.SawCommitBackup) == 0 {
			continue
		}
		for _, b := range sortedKeys(rt.sawBy, cmp.Compare[int]) {
			if saw := rt.sawBy[b]; b != m.ID && saw&(proto.SawLock|proto.SawCommitBackup) != 0 {
				rt.fetchOutstanding++
				m.sendCtx(b, &proto.FetchTxState{Config: m.config.ID, Region: rr.region, TxIDs: []proto.TxID{rt.id}}, rr.ctx)
				break
			}
		}
	}
	rr.pendingLock = lockAll
	lockAll()
}

// installPendLock upserts a recovered lock record into the participant
// state used by record application. lock came in a message: it is foreign,
// so the entry keeps a copy of its own (or merges lock into the one it has)
// and lock itself is never recycled.
func (m *Machine) installPendLock(id proto.TxID, lock *proto.Record) {
	k := mtlOf(id)
	rt := m.pend[k]
	if rt == nil {
		rt = m.newRemoteTx(k, id)
	}
	if lock != nil {
		if rt.lock == nil {
			rt.lock = lock.Clone()
		} else {
			mergeRecords(rt.lock, lock)
		}
		if len(lock.Regions) > 0 {
			rt.regionHint = append(rt.regionHint[:0], lock.Regions...)
		}
	}
	rt.saw |= proto.SawLock
	rt.lastChange = m.c.Eng.Now()
}

// recoverLocks write-locks every object a recovering transaction modified
// in this region (§5.3 step 4).
func (m *Machine) recoverLocks(rep *replica, rt *recTx) {
	if rt.lock == nil || rt.saw&(proto.SawAbort|proto.SawAbortRecovery) != 0 {
		return
	}
	for _, w := range rt.lock.Writes {
		if w.Addr.Region != rep.id {
			continue
		}
		off := int(w.Addr.Off)
		if _, held := rep.lockOwner[w.Addr.Off]; held {
			// Held for this transaction already, or for another recovering
			// one that passes it on when it is decided (passRecoveryLocks).
			continue
		}
		word := regionmem.ReadHeader(rep.mem, off)
		if regionmem.Version(word) > w.Version {
			// This replica already applied the write (it was primary in the
			// old configuration, or a backup that truncated): nothing left
			// to protect. A backup promoted to primary has NOT applied yet
			// even when the transaction reached COMMIT-PRIMARY elsewhere,
			// so the per-object version — not the per-transaction saw set —
			// decides; the lock held here keeps readers off the stale value
			// until the recovery decision applies it.
			continue
		}
		if !regionmem.Locked(word) {
			regionmem.WriteHeader(rep.mem, off, word|1<<63)
		}
		rep.lockOwner[w.Addr.Off] = rt.id
	}
}

// endLockRecSpan closes a region's "lock-recovery" span as it activates.
func (m *Machine) endLockRecSpan(rr *regionRecovery) {
	if rr.ctx.Valid() {
		m.trb.End(rr.ctx, m.c.Eng.Now(), int64(len(rr.txs)))
		rr.ctx = trace.Ctx{}
	}
}

// activateRegion completes §5.3 step 4's fast path: the region accepts
// reads and commits again, long before data recovery finishes.
func (m *Machine) activateRegion(region uint32) {
	if rep := m.replica(region); rep != nil {
		rep.active = true
	}
	m.unblockRegion(region)
	for _, mem := range m.config.Machines {
		if int(mem) != m.ID {
			m.sendCtx(int(mem), &regionActiveAnnounce{ConfigID: m.config.ID, Region: region}, m.recoveryTraceCtx())
		}
	}
	m.c.trace("region-active", m.ID, int(region))
	m.maybeAllPrimariesActive()
}

// maybeAllPrimariesActive sends REGIONS-ACTIVE once every region this
// machine is primary for is active (§5.4).
func (m *Machine) maybeAllPrimariesActive() {
	if m.recov == nil || m.recov.regionsActiveSent {
		return
	}
	for i := range m.regions {
		if rep := m.regions[i].rep; rep != nil && rep.primary && !rep.active {
			return
		}
	}
	for _, rr := range m.recov.regions {
		if rr.phase < 2 {
			return
		}
	}
	m.recov.regionsActiveSent = true
	m.sendCtx(int(m.config.CM), &proto.RegionsActive{ConfigID: m.config.ID}, m.recoveryTraceCtx())
}

// replicateAndVote is steps 5–6: push lock records to backups missing
// them, then vote to the recovery coordinator, sharded by thread.
func (m *Machine) replicateAndVote(rr *regionRecovery) {
	rm := m.mapping(rr.region)
	if rm == nil {
		return
	}
	for _, k := range sortedKeys(rr.txs, mtlCmp) {
		rt := rr.txs[k]
		if rt.voted {
			continue
		}
		if rt.lock != nil {
			for _, b := range rm.Replicas[1:] {
				bid := int(b)
				if bid == m.ID {
					continue
				}
				if rt.sawBy[bid]&(proto.SawLock|proto.SawCommitBackup) == 0 {
					rt.replOutstanding++
					lock := rt.lock.Clone() // records leave a machine as copies of their own
					m.sendCtx(bid, &proto.ReplicateTxState{
						Config: m.config.ID, Region: rr.region, Tx: rt.id, Lock: lock,
					}, m.recoveryTraceCtx())
				}
			}
		}
		if rt.replOutstanding == 0 {
			m.voteFor(rr, rt)
		}
	}
}

// voteFor computes and sends the region's vote (§5.3 step 6 rules).
func (m *Machine) voteFor(rr *regionRecovery, rt *recTx) {
	if rt.voted {
		return
	}
	rt.voted = true
	vote := voteFromSaw(rt.saw)
	var regions []uint32
	if rt.lock != nil {
		regions = rt.lock.Regions
	}
	coord := m.recoveryCoordinator(rt.id)
	msg := &proto.RecoveryVote{
		Config:  m.config.ID,
		Region:  rr.region,
		Tx:      rt.id,
		Regions: regions,
		Vote:    vote,
	}
	m.sendFromThreadCtx(int(rt.id.Thread), coord, msg, m.recoveryTraceCtx())
}

// voteFromSaw implements the vote precedence of §5.3 step 6.
func voteFromSaw(saw uint8) proto.Vote {
	switch {
	case saw&(proto.SawCommitPrimary|proto.SawCommitRecovery) != 0:
		return proto.VoteCommitPrimary
	case saw&proto.SawCommitBackup != 0 && saw&proto.SawAbortRecovery == 0:
		return proto.VoteCommitBackup
	case saw&proto.SawLock != 0 && saw&proto.SawAbortRecovery == 0:
		return proto.VoteLock
	default:
		return proto.VoteAbort
	}
}

// recoveryCoordinator maps a transaction to its recovery coordinator: the
// original coordinator while it remains a member, otherwise a hash over
// the membership (§5.3 step 6).
func (m *Machine) recoveryCoordinator(id proto.TxID) int {
	if m.config.Member(id.Machine) {
		return int(id.Machine)
	}
	h := fnv.New64a()
	var buf [20]byte
	le := buf[:0]
	le = append(le, byte(id.Config), byte(id.Config>>8), byte(id.Config>>16), byte(id.Config>>24))
	le = append(le, byte(id.Machine), byte(id.Machine>>8))
	le = append(le, byte(id.Thread), byte(id.Thread>>8))
	le = append(le, byte(id.Local), byte(id.Local>>8), byte(id.Local>>16), byte(id.Local>>24),
		byte(id.Local>>32), byte(id.Local>>40), byte(id.Local>>48), byte(id.Local>>56))
	h.Write(le)
	members := m.config.Machines
	return int(members[h.Sum64()%uint64(len(members))])
}

// onFetchTxState serves a primary's request for missing lock records
// (step 4).
func (m *Machine) onFetchTxState(src int, f *proto.FetchTxState) {
	if f.Config != m.config.ID {
		return
	}
	for _, id := range f.TxIDs {
		rt := m.pend[mtlOf(id)]
		var lock *proto.Record
		if rt != nil {
			lock = rt.lock.Clone()
		}
		m.send(src, &proto.SendTxState{Config: m.config.ID, Region: f.Region, Tx: id, Lock: lock})
	}
}

// onSendTxState installs a fetched record and resumes lock recovery.
func (m *Machine) onSendTxState(s *proto.SendTxState) {
	if s.Config != m.config.ID || m.recov == nil {
		return
	}
	rr := m.recov.regions[s.Region]
	if rr == nil {
		return
	}
	rt := rr.txs[mtlOf(s.Tx)]
	if rt == nil {
		return
	}
	if rt.lock == nil && s.Lock != nil {
		rt.lock = s.Lock
	}
	// Also install the record in the participant state so a later
	// COMMIT-RECOVERY can apply the writes (the primary may never have
	// received the original LOCK record).
	if s.Lock != nil {
		m.installPendLock(s.Tx, s.Lock)
	}
	if rt.fetchOutstanding > 0 {
		rt.fetchOutstanding--
	}
	if rr.pendingLock != nil {
		// Recount: all fetches done?
		for _, other := range rr.txs {
			if other.fetchOutstanding > 0 {
				return
			}
		}
		fn := rr.pendingLock
		rr.pendingLock = nil
		fn()
	}
}

// onReplicateTxState stores a replicated lock record at a backup (step 5),
// merged into what the backup holds: that can be the transaction's record
// for another region, without this region's writes.
func (m *Machine) onReplicateTxState(src int, r *proto.ReplicateTxState) {
	if r.Config != m.config.ID {
		return
	}
	m.installPendLock(r.Tx, r.Lock)
	m.send(src, &proto.ReplicateTxStateAck{Config: r.Config, Region: r.Region, Tx: r.Tx})
}

// onReplicateTxStateAck resumes voting once replication completed (step 5
// → 6: "vote as before after first waiting for log replication ... to
// complete").
func (m *Machine) onReplicateTxStateAck(a *proto.ReplicateTxStateAck) {
	if a.Config != m.config.ID || m.recov == nil {
		return
	}
	rr := m.recov.regions[a.Region]
	if rr == nil {
		return
	}
	rt := rr.txs[mtlOf(a.Tx)]
	if rt == nil {
		return
	}
	rt.replOutstanding--
	if rt.replOutstanding <= 0 && rr.phase == 2 {
		m.voteFor(rr, rt)
	}
}

// voteTimeout is how long the recovery coordinator waits for votes before
// sending explicit REQUEST-VOTE messages (§5.3).
const voteTimeout = 250 * sim.Microsecond

// armVoteCollector creates (or refreshes) a vote collector and its
// REQUEST-VOTE timeout.
func (m *Machine) armVoteCollector(id proto.TxID, knownRegions []uint32, participants map[int]bool) *voteCollector {
	if m.recov == nil {
		m.recov = &recoveryState{
			configID: m.config.ID,
			regions:  make(map[uint32]*regionRecovery),
			votes:    make(map[proto.TxID]*voteCollector),
		}
	}
	vc := m.recov.votes[id]
	if vc == nil {
		vc = &voteCollector{
			id:           id,
			regions:      make(map[uint32]proto.Vote),
			known:        make(map[uint32]bool),
			participants: make(map[int]bool),
		}
		m.recov.votes[id] = vc
		if m.trb != nil {
			vc.ctx = m.trb.Begin("recovery", "vote-decide", m.c.Eng.Now(),
				trace.RecoveryTraceBit|m.config.ID, 0, int64(id.Local))
		}
		m.c.Eng.After(voteTimeout, func() {
			if m.alive {
				m.requestMissingVotes(vc)
			}
		})
	}
	for _, r := range knownRegions {
		vc.known[r] = true
	}
	for p := range participants {
		vc.participants[p] = true
	}
	return vc
}

// participantSet lists all machines holding records for a coordinator's
// transaction.
func (ct *coordTx) participantSet() map[int]bool {
	out := make(map[int]bool, len(ct.groups))
	for i := range ct.groups {
		out[ct.groups[i].dst] = true
	}
	return out
}

// onRecoveryVote collects a region's vote (step 6) at the recovery
// coordinator.
func (m *Machine) onRecoveryVote(src int, v *proto.RecoveryVote) {
	if v.Config != m.config.ID {
		return
	}
	vc := m.armVoteCollector(v.Tx, v.Regions, map[int]bool{src: true})
	if vc.decided {
		// Late vote after decision: resend the decision to the voter.
		m.sendDecision(vc, src)
		return
	}
	vc.known[v.Region] = true
	if old, ok := vc.regions[v.Region]; !ok || v.Vote > old {
		vc.regions[v.Region] = v.Vote
	}
	m.maybeDecide(vc)
}

// requestMissingVotes is the 250 µs timeout path of step 6.
func (m *Machine) requestMissingVotes(vc *voteCollector) {
	if vc.decided || m.recov == nil {
		return
	}
	missing := false
	for _, region := range sortedKeys(vc.known, cmp.Compare[uint32]) {
		if _, ok := vc.regions[region]; ok {
			continue
		}
		missing = true
		rm := m.mapping(region)
		if rm == nil || len(rm.Replicas) == 0 {
			continue
		}
		m.sendCtx(int(rm.Replicas[0]), &proto.RequestVote{Config: m.config.ID, Tx: vc.id, Region: region}, vc.ctx)
	}
	if missing {
		m.c.Eng.After(voteTimeout, func() {
			if m.alive {
				m.requestMissingVotes(vc)
			}
		})
	}
	if len(vc.known) == 0 {
		// A recovering transaction with no write regions (read-set-only
		// recovery): abort it.
		m.decide(vc, false)
	}
}

// onRequestVote answers explicit vote requests, including for transactions
// this primary never classified as recovering (§5.3: primaries with
// records vote as before; without records they vote truncated or unknown).
func (m *Machine) onRequestVote(src int, rv *proto.RequestVote) {
	if rv.Config != m.config.ID {
		return
	}
	// Vote only after this configuration's drain has completed and (if the
	// region is recovering) its lock recovery has merged every replica's
	// knowledge: a premature vote from partial state could read as LOCK a
	// transaction whose COMMIT-BACKUP exists only at a backup, turning a
	// reported commit into an abort. The requester retries on its timeout.
	if m.recov == nil || m.recov.configID != m.config.ID || !m.recov.drained {
		return
	}
	if rr := m.recov.regions[rv.Region]; rr != nil && rr.phase < 2 {
		return
	}
	k := mtlOf(rv.Tx)
	vote := proto.VoteUnknown
	var regions []uint32
	if m.recov != nil {
		if rr := m.recov.regions[rv.Region]; rr != nil {
			if rt := rr.txs[k]; rt != nil {
				if rt.replOutstanding > 0 {
					return // will vote when replication completes
				}
				rt.voted = true
				vote = voteFromSaw(rt.saw)
				if rt.lock != nil {
					regions = rt.lock.Regions
				}
				m.send(src, &proto.RecoveryVote{Config: m.config.ID, Region: rv.Region, Tx: rv.Tx, Regions: regions, Vote: vote})
				return
			}
		}
	}
	if rt := m.pend[k]; rt != nil && remoteTxTouches(rt, rv.Region) {
		vote = voteFromSaw(rt.saw)
		regions = slices.Clone(rt.regions())
	} else if m.truncWindow(rv.Tx.Coord()).has(rv.Tx.Local) {
		vote = proto.VoteTruncated
	}
	m.send(src, &proto.RecoveryVote{Config: m.config.ID, Region: rv.Region, Tx: rv.Tx, Regions: regions, Vote: vote})
}

// maybeDecide applies the decision rule of step 7.
func (m *Machine) maybeDecide(vc *voteCollector) {
	if vc.decided {
		return
	}
	anyCommitPrimary := false
	anyCommitBackup := false
	allCompatible := true
	for region := range vc.known {
		v, ok := vc.regions[region]
		if !ok {
			// Commit-primary short-circuits waiting for all regions.
			allCompatible = false
			continue
		}
		switch v {
		case proto.VoteCommitPrimary:
			anyCommitPrimary = true
		case proto.VoteCommitBackup:
			anyCommitBackup = true
		case proto.VoteLock, proto.VoteTruncated:
			// compatible with commit
		default:
			allCompatible = false
		}
	}
	if anyCommitPrimary {
		m.decide(vc, true)
		return
	}
	if len(vc.regions) == len(vc.known) && len(vc.known) > 0 {
		m.decide(vc, anyCommitBackup && allCompatible)
	}
}

// decide is step 7: fix the outcome, inform every participant replica,
// and finish the coordinator-side transaction if it is ours.
func (m *Machine) decide(vc *voteCollector, commit bool) {
	if vc.decided {
		return
	}
	vc.decided = true
	vc.commit = commit
	if vc.ctx.Valid() {
		arg := int64(0)
		if commit {
			arg = 1
		}
		// End the span but keep vc.ctx: the decision fan-out (and any late
		// re-sends) stays causally linked to it.
		m.trb.End(vc.ctx, m.c.Eng.Now(), arg)
	}
	m.c.Counters.Inc("recovery_decided", 1)
	if commit {
		m.c.Counters.Inc("recovery_committed", 1)
	} else {
		m.c.Counters.Inc("recovery_aborted", 1)
	}
	// Participants: all replicas of all written regions.
	for region := range vc.known {
		if rm := m.mapping(region); rm != nil {
			for _, r := range rm.Replicas {
				vc.participants[int(r)] = true
			}
		}
	}
	vc.acked = make(map[int]bool)
	anySent := false
	for _, p := range sortedKeys(vc.participants, cmp.Compare[int]) {
		if !m.isMember(p) {
			continue
		}
		anySent = true
		m.sendDecision(vc, p)
	}
	// Finish our own in-flight transaction, preserving any outcome
	// already reported to the application.
	if ct, ok := m.inflight[vc.id]; ok {
		delete(m.inflight, vc.id)
		ct.phase = phaseDone
		// The records recovery makes unnecessary are never written, so
		// their log reservations must be returned (they would otherwise
		// leak ring space forever).
		m.releaseCoordReservations(ct)
		if commit {
			if !ct.reported {
				ct.reported = true
				m.reportCommitted(ct.cb)
			}
		} else {
			if ct.reported {
				panic("farm: recovery aborted a transaction already reported committed")
			}
			ct.tx.releaseAllocs()
			m.Aborted++
			m.c.Counters.Inc("tx_aborted", 1)
			ct.cb(ErrAborted)
		}
	}
	if !anySent {
		m.sendTruncateRecovery(vc)
	}
}

// decisionAcksComplete reports whether every member participant has
// acknowledged the decision (non-members are fenced and never ack).
func (m *Machine) decisionAcksComplete(vc *voteCollector) bool {
	for p := range vc.participants {
		if m.isMember(p) && !vc.acked[p] {
			return false
		}
	}
	return true
}

func (m *Machine) sendDecision(vc *voteCollector, dst int) {
	if vc.commit {
		m.sendCtx(dst, &proto.CommitRecovery{Config: m.config.ID, Tx: vc.id}, vc.ctx)
	} else {
		m.sendCtx(dst, &proto.AbortRecovery{Config: m.config.ID, Tx: vc.id}, vc.ctx)
	}
}

// onRecoveryDecision processes COMMIT-RECOVERY / ABORT-RECOVERY at a
// participant: like COMMIT-PRIMARY at primaries and COMMIT-BACKUP at
// backups; ABORT-RECOVERY releases locks (§5.3 step 7).
func (m *Machine) onRecoveryDecision(src int, id proto.TxID, commit bool) {
	k := mtlOf(id)
	if m.truncWindow(id.Coord()).has(id.Local) {
		// A retransmitted decision for a transaction we already truncated:
		// recreating participant state here would leak a pend entry that no
		// future truncation cleans. Just re-acknowledge.
		m.send(src, &proto.RecoveryDecisionAck{Config: m.config.ID, Tx: id})
		return
	}
	rt := m.pend[k]
	if rt == nil {
		rt = m.newRemoteTx(k, id)
	}
	rt.lastChange = m.c.Eng.Now()
	if commit {
		rt.saw |= proto.SawCommitRecovery
		// Apply at primary regions now; backup regions apply at
		// TRUNCATE-RECOVERY, like the normal protocol. A machine that
		// already applied as primary of one written region may since have
		// been promoted to primary of another (region remap): clear the
		// one-shot flag so the newly owned region's writes apply too —
		// per-object version gating keeps the pass idempotent.
		rt.applied = false
		m.applyCommitPrimary(rt)
	} else {
		rt.saw |= proto.SawAbortRecovery
		m.releaseLocksRecovered(rt)
	}
	m.passRecoveryLocks(rt)
	m.send(src, &proto.RecoveryDecisionAck{Config: m.config.ID, Tx: id})
}

// passRecoveryLocks runs when the decision for recovering transaction rt has
// just given up its objects at this primary. Lock recovery holds an object
// for one transaction at a time, and recovering transactions can be chained
// on one: A installed v+1 at the old primary, B read that and reached
// COMMIT-BACKUP with v+2, and the promoted backup still has v, locked for A.
// Were A's decision to leave the object free, a new transaction could lock
// v+1 before B's COMMIT-RECOVERY installs v+2 over that lock, and the new
// transaction's own write would then be version-gated away: a lost update.
// So each object rt wrote that is free now goes, locked, to the undecided
// recovering transaction of the region with the lowest unapplied write to
// it — what recoverLocks would have done had rt not been in the way — and
// is free only when there is none. Normal commits never come through here.
func (m *Machine) passRecoveryLocks(rt *remoteTx) {
	if rt.lock == nil || m.recov == nil {
		return
	}
	for _, w := range rt.lock.Writes {
		rep, rr := m.replica(w.Addr.Region), m.recov.regions[w.Addr.Region]
		if rep == nil || !rep.primary || rr == nil {
			continue
		}
		if _, held := rep.lockOwner[w.Addr.Off]; held {
			continue
		}
		word := regionmem.ReadHeader(rep.mem, int(w.Addr.Off))
		var heir *recTx
		var heirVersion uint64
		for _, other := range rr.txs {
			p := m.pend[mtlOf(other.id)]
			if other.lock == nil || p == nil ||
				(other.saw|p.saw)&(proto.SawAbort|proto.SawAbortRecovery|proto.SawCommitRecovery) != 0 {
				continue // nothing to protect, truncated, or decided
			}
			for _, ow := range other.lock.Writes {
				if ow.Addr != w.Addr || ow.Version < regionmem.Version(word) {
					continue
				}
				// rr.txs is a map: the choice must not depend on its order.
				if heir == nil || ow.Version < heirVersion ||
					ow.Version == heirVersion && mtlCmp(mtlOf(other.id), mtlOf(heir.id)) < 0 {
					heir, heirVersion = other, ow.Version
				}
			}
		}
		if heir != nil {
			regionmem.WriteHeader(rep.mem, int(w.Addr.Off), word|1<<63)
			rep.lockOwner[w.Addr.Off] = heir.id
		}
	}
}

// releaseLocksRecovered releases both normal and recovery locks held for
// an aborted recovering transaction.
func (m *Machine) releaseLocksRecovered(rt *remoteTx) {
	m.releaseLocks(rt)
	// Recovery locks may be registered in lockOwner without appearing in
	// rt.lockedObjs (they were taken by recoverLocks).
	if rt.lock == nil {
		return
	}
	for _, w := range rt.lock.Writes {
		rep := m.replica(w.Addr.Region)
		if rep == nil {
			continue
		}
		if owner, ok := rep.lockOwner[w.Addr.Off]; ok && owner == rt.id {
			regionmem.Unlock(rep.mem, int(w.Addr.Off))
			delete(rep.lockOwner, w.Addr.Off)
		}
	}
}

// onRecoveryDecisionAck records a participant ack; when every member
// participant has acknowledged, send TRUNCATE-RECOVERY (§5.3 step 7).
// Duplicate acks (decision retransmissions) are idempotent.
func (m *Machine) onRecoveryDecisionAck(src int, a *proto.RecoveryDecisionAck) {
	if m.recov == nil {
		return
	}
	vc := m.recov.votes[a.Tx]
	if vc == nil || !vc.decided || vc.acked[src] {
		return
	}
	vc.acked[src] = true
	if m.decisionAcksComplete(vc) {
		m.sendTruncateRecovery(vc)
	}
}

func (m *Machine) sendTruncateRecovery(vc *voteCollector) {
	for _, p := range sortedKeys(vc.participants, cmp.Compare[int]) {
		if m.isMember(p) {
			m.sendCtx(p, &proto.TruncateRecovery{Config: m.config.ID, Tx: vc.id}, vc.ctx)
		}
	}
}

// onTruncateRecovery reclaims a recovered transaction's state: backups
// apply committed writes, locks are dropped, frames reclaimed. (A
// coordinator the peer table does not hold has no truncated-id set to
// join.)
func (m *Machine) onTruncateRecovery(t *proto.TruncateRecovery) {
	m.truncateTx(t.Tx.Coord(), t.Tx.Local)
}

// queryDecision asks a transaction's recovery coordinator what became of a
// recovering transaction. Decisions and truncations are plain messages, so
// a participant whose COMMIT/ABORT-RECOVERY or TRUNCATE-RECOVERY was lost
// (gray NIC, one-way cut during the recovery window) would otherwise hold
// its pend entry forever: backups never vote, so no protocol message ever
// comes to break the tie. The stall sweep detects such entries and sends
// this query; see onQueryDecision for the coordinator side.
type queryDecision struct {
	Config  uint64
	Tx      proto.TxID
	Regions []uint32
}

// sweepStuckRecovering is the participant side: find recovering pend
// entries with no protocol progress for a full stall period and ask their
// recovery coordinator to retransmit the outcome. Called from the tx stall
// sweep; rate-limited to one query per entry per period by bumping
// lastChange.
func (m *Machine) sweepStuckRecovering(now sim.Time) {
	if m.recov != nil && (m.recov.configID != m.config.ID || !m.recov.drained) {
		return // recovery for this configuration is still classifying
	}
	for _, k := range sortedKeys(m.pend, mtlCmp) {
		rt := m.pend[k]
		if now-rt.lastChange < txStallTimeout || !m.txIsRecovering(rt) {
			continue
		}
		regions := rt.regions()
		if len(regions) == 0 {
			continue
		}
		rt.lastChange = now
		m.c.Counters.Inc("recovery_query", 1)
		q := &queryDecision{Config: m.config.ID, Tx: rt.id, Regions: slices.Clone(regions)}
		coord := m.recoveryCoordinator(rt.id)
		if coord == m.ID {
			m.onQueryDecision(m.ID, q)
		} else {
			m.sendCtx(coord, q, m.recoveryTraceCtx())
		}
	}
}

// onQueryDecision serves a participant stuck on a recovering transaction.
// Three cases: the transaction was already truncated here (the participant
// only missed TRUNCATE-RECOVERY); a decision exists (retransmit it, or the
// truncation if this participant already acknowledged the decision); or no
// vote collector exists at all — every region vote was lost — in which
// case a fresh vote collection is started against the written regions'
// primaries, which vote from their merged post-drain state.
func (m *Machine) onQueryDecision(src int, q *queryDecision) {
	if q.Config != m.config.ID || !m.isMember(src) {
		return
	}
	if m.truncWindow(q.Tx.Coord()).has(q.Tx.Local) {
		m.c.Counters.Inc("recovery_query_truncated", 1)
		m.send(src, &proto.TruncateRecovery{Config: m.config.ID, Tx: q.Tx})
		return
	}
	if m.recov != nil && m.recov.configID == m.config.ID {
		if vc := m.recov.votes[q.Tx]; vc != nil {
			if !vc.decided {
				return // vote collection in progress; the sweep retries
			}
			vc.participants[src] = true
			if vc.acked[src] {
				// It has the decision; only its truncation was lost.
				m.c.Counters.Inc("recovery_query_retruncate", 1)
				m.sendCtx(src, &proto.TruncateRecovery{Config: m.config.ID, Tx: q.Tx}, vc.ctx)
			} else {
				m.c.Counters.Inc("recovery_query_redecide", 1)
				m.sendDecision(vc, src)
			}
			return
		}
	}
	// No collector: the decision or every vote for it was lost in flight.
	m.c.Counters.Inc("recovery_query_revote", 1)
	vc := m.armVoteCollector(q.Tx, q.Regions, map[int]bool{src: true})
	m.requestMissingVotes(vc)
}
