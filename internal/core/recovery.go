package core

import (
	"cmp"
	"hash/fnv"
	"math"
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
// Every request of these steps is a call the table resends every voteTimeout
// until answered (transport.go), so a lost message delays recovery and cannot
// wedge it. A receiver not ready yet leaves a request unanswered; a request
// whose answer was lost comes back, so every handler is idempotent.
//
// The recovery coordinator is the original coordinator if it is still in
// the configuration, otherwise a machine chosen by hashing the transaction
// id over the membership — a deterministic rule every machine evaluates
// identically, which is what the paper's consistent hashing provides.

// recoveryState is per-machine, per-configuration recovery progress. The
// regions this machine recovers as their primary hang off the region table
// (regionState.recovery).
type recoveryState struct {
	configID uint64
	drained  bool
	// votes collected by this machine as a recovery coordinator.
	votes map[proto.TxID]*voteCollector
	// regionsActiveSent guards the REGIONS-ACTIVE report, allActive the
	// work ALL-REGIONS-ACTIVE starts.
	regionsActiveSent, allActive bool
	// ctx is the open "drain" span (§5.3 step 2) when tracing is on.
	ctx trace.Ctx
}

// recovering reports whether this machine runs its configuration's recovery.
func (m *Machine) recovering() bool { return m.recov != nil && m.recov.configID == m.config.ID }

// voteTimeout is how long the recovery coordinator waits for votes before
// sending explicit REQUEST-VOTE messages (§5.3), and the interval at which
// every recovery call is resent.
const voteTimeout = 250 * sim.Microsecond

// recoveryResend is the resend rule of every §5.3 call.
func (m *Machine) recoveryResend(ctx trace.Ctx) resend {
	return resend{every: voteTimeout, tries: math.MaxInt, cfg: m.config.ID, ctx: ctx}
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

// regionRecovery drives steps 3–6 for one region at its primary. A
// position in replicas, the region's placement, indexes needed and each
// transaction's sawBy; position 0 is this primary.
type regionRecovery struct {
	region   uint32
	replicas []uint16
	// needed[i] is set until backup i's NEED-RECOVERY arrives.
	needed []bool
	// txs are the recovering transactions, in mtl order.
	txs []*recTx
	// phase: 0 waiting (drain+NEED-RECOVERY), 1 fetching/locking,
	// 2 active (locks recovered; replication/votes may still be running).
	phase int
	// ctx is the open "lock-recovery" span for this region.
	ctx trace.Ctx
}

// openRegionRecovery returns the recovery of region, whose slot is rs, at
// its primary. A new one waits for a NEED-RECOVERY from every other replica.
func (m *Machine) openRegionRecovery(region uint32, rs *regionState) *regionRecovery {
	if rs.recovery == nil {
		reps := rs.mapping.Replicas
		rr := &regionRecovery{region: region, replicas: reps, needed: make([]bool, len(reps))}
		for i, b := range reps {
			rr.needed[i] = i > 0 && int(b) != m.ID
		}
		rs.recovery = rr
	}
	return rs.recovery
}

// recTx is one recovering transaction's state at a region primary.
type recTx struct {
	id  proto.TxID
	saw uint8 // merged over all replicas of the region
	// sawBy[i] is replica i's own view: where a missing lock record is
	// fetched from, and which backups it is replicated to (steps 4–5).
	sawBy []uint8
	lock  *proto.Record
	voted bool
}

// voteCollector gathers votes at the recovery coordinator.
type voteCollector struct {
	id proto.TxID
	// regions are the transaction's write regions, in id order.
	regions         []regionVote
	decided, commit bool
	// participants are the machines the decision goes to, in id order;
	// unacked counts the decisions not acknowledged yet. Truncation waits
	// for every acknowledgement: truncated at one participant before another
	// saw its ABORT-RECOVERY, a transaction could commit in a later recovery.
	participants []int
	unacked      int
	// ctx is the "vote-decide" span, open from the collector's creation to
	// the decision; decision fan-out reuses it as the causal context.
	ctx trace.Ctx
}

// regionVote is one write region's entry in a vote collector: its vote
// once one came, and ask, the REQUEST-VOTE call the vote answers.
type regionVote struct {
	region uint32
	vote   proto.Vote
	voted  bool
	ask    uint64
}

// startTxRecovery runs on NEW-CONFIG-COMMIT.
func (m *Machine) startTxRecovery(configID uint64) {
	m.recov = &recoveryState{configID: configID, votes: make(map[proto.TxID]*voteCollector)}
	for i := range m.regions {
		m.regions[i].recovery = nil
	}
	if m.trb != nil {
		m.recov.ctx = m.trb.Begin("recovery", "drain", m.c.Eng.Now(),
			trace.RecoveryTraceBit|configID, 0, int64(len(m.peers)))
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
		if !m.alive || !m.recovering() || m.recov.configID != configID {
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

// recoveringRegion reports whether the region in slot rs, hosted here, has
// changed replicas in this configuration, or the configuration lost a
// machine — then every region runs the (possibly empty) handshake, since a
// removed machine may have coordinated transactions touching any region. A
// hosted region's slot has its placement, primary first.
func (m *Machine) recoveringRegion(rs *regionState) bool {
	return rs.rep != nil && (rs.mapping.LastReplicaChange >= m.config.ID || m.configShrank)
}

// findRecoveringTxs is step 3: classify every transaction with records in
// our logs; route NEED-RECOVERY messages; set up per-region recovery.
func (m *Machine) findRecoveringTxs() {
	// Open recovery for every recovering region we are (now) primary for.
	// Regions whose replicas are all unchanged never instantiate recovery
	// state, matching the paper's "only recovering transactions go through
	// transaction recovery".
	for i := range m.regions {
		if rs := &m.regions[i]; m.recoveringRegion(rs) && rs.rep.primary {
			m.openRegionRecovery(uint32(i), rs)
		}
	}
	// Classify our participant-side transactions.
	need := make([][]proto.TxSeen, len(m.regions))
	for _, k := range sortedKeys(m.pend, mtlCmp) {
		rt := m.pend[k]
		if !m.txIsRecovering(rt) {
			continue
		}
		for _, region := range rt.regions() {
			// What we saw is evidence for the regions our records write to
			// (step 3: transactions "that updated the region"), not for every
			// region they list: a record carries the writes of the regions
			// its receiver replicated when it was written, and this
			// reconfiguration may have made us a replica of another. Were
			// our COMMIT-BACKUP to count there, a region none of whose
			// replicas ever received the write would vote commit-backup and
			// the transaction commit without it.
			rs := m.region(region)
			if rs == nil || rs.rep == nil || !remoteTxTouches(rt, region) {
				continue
			}
			if rs.rep.primary {
				m.openRegionRecovery(region, rs).add(0, rt.id, rt.saw, rt.lock.Clone())
			} else {
				need[region] = append(need[region], proto.TxSeen{Tx: rt.id, Saw: rt.saw})
			}
		}
	}
	// Every backup sends NEED-RECOVERY for every recovering region it
	// backs, even when it has nothing, so primaries can detect completion.
	ctx := m.recoveryTraceCtx()
	for i := range m.regions {
		rs := &m.regions[i]
		if need[i] == nil && (!m.recoveringRegion(rs) || rs.rep.primary) {
			continue
		}
		p := int(rs.mapping.Replicas[0])
		nr := &proto.NeedRecovery{Config: m.config.ID, Region: uint32(i), Txs: need[i]}
		nr.ID = m.callResent(p, nr, m.recoveryResend(ctx), nil)
		m.sendCtx(p, nr, ctx)
	}
	m.c.Counters.Inc("recovering_tx_found", uint64(m.countRecovering()))

	// Coordinator side: collect votes for our own recovering transactions.
	// One with no write region (read-set-only recovery) aborts.
	for _, id := range sortedKeys(m.inflight, txIDCmp) {
		if t := m.inflight[id]; t.recovering {
			vc := m.collectVotes(t.id, t.writeRegions)
			for i := range t.groups {
				vc.addParticipant(t.groups[i].dst)
			}
			if len(vc.regions) == 0 {
				m.decide(vc, false)
			}
		}
	}
	for i := range m.regions {
		if rr := m.regions[i].recovery; rr != nil {
			m.maybeRecoverRegion(rr)
		}
	}
	m.maybeAllPrimariesActive()
}

// countRecovering counts the distinct transactions the regions recovered
// here list.
func (m *Machine) countRecovering() int {
	var ids []mtl
	for i := range m.regions {
		if rr := m.regions[i].recovery; rr != nil {
			for _, rt := range rr.txs {
				ids = append(ids, mtlOf(rt.id))
			}
		}
	}
	slices.SortFunc(ids, mtlCmp)
	return len(slices.Compact(ids))
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

// find locates a transaction in the region's ordered txs.
func (rr *regionRecovery) find(id proto.TxID) (int, bool) {
	return slices.BinarySearchFunc(rr.txs, mtlOf(id), func(rt *recTx, k mtl) int { return mtlCmp(mtlOf(rt.id), k) })
}

// add merges replica pos's knowledge of a recovering transaction into the
// region's recovery state.
func (rr *regionRecovery) add(pos int, id proto.TxID, saw uint8, lock *proto.Record) {
	i, ok := rr.find(id)
	if !ok {
		rr.txs = slices.Insert(rr.txs, i, &recTx{id: id, sawBy: make([]uint8, len(rr.replicas))})
	}
	rt := rr.txs[i]
	rt.saw |= saw
	rt.sawBy[pos] |= saw
	if rt.lock == nil && lock != nil {
		rt.lock = lock
	}
}

// onNeedRecovery merges a backup's report (step 3 → step 4 hand-off) and
// answers it. Before this machine's own NEW-CONFIG-COMMIT it does not: the
// resend brings the report back.
func (m *Machine) onNeedRecovery(src int, nr *proto.NeedRecovery) {
	rs := m.region(nr.Region)
	if nr.Config != m.config.ID || !m.recovering() || rs == nil || rs.rep == nil || !rs.rep.primary {
		return
	}
	rr := rs.recovery
	if rr == nil {
		// We did not classify this region as recovering (e.g. only the
		// coordinator died); create recovery state on demand, with our own
		// matching pending transactions.
		rr = m.openRegionRecovery(nr.Region, rs)
		for _, rt := range m.pend {
			if m.txIsRecovering(rt) && slices.Contains(rt.regions(), nr.Region) && remoteTxTouches(rt, nr.Region) {
				rr.add(0, rt.id, rt.saw, rt.lock.Clone())
			}
		}
	}
	pos := slices.Index(rr.replicas, uint16(src))
	if pos <= 0 {
		return
	}
	if rr.needed[pos] { // a resend whose answer was lost is only answered
		for _, ts := range nr.Txs {
			rr.add(pos, ts.Tx, ts.Saw, nil)
		}
		rr.needed[pos] = false
	}
	m.send(src, &rpcReply{ID: nr.ID})
	m.maybeRecoverRegion(rr)
}

// maybeRecoverRegion runs step 4 once the logs are drained and every
// backup reported: fetch missing lock records, then acquire locks; the
// region becomes active immediately after (§5.3's fast path), with record
// replication and voting continuing in the background.
func (m *Machine) maybeRecoverRegion(rr *regionRecovery) {
	if !m.recov.drained || slices.Contains(rr.needed, true) || rr.phase != 0 {
		return
	}
	rr.phase = 1
	if m.trb != nil {
		rr.ctx = m.trb.Begin("recovery", "lock-recovery", m.c.Eng.Now(),
			trace.RecoveryTraceBit|m.config.ID, 0, int64(rr.region))
	}
	for _, rt := range rr.txs {
		m.fetchLock(rr, rt)
	}
	m.lockRegion(rr)
}

// holder returns the position of a backup that saw rt's lock record while
// the primary lacks it, -1 if there is none.
func holder(rt *recTx) int {
	for b := 1; rt.lock == nil && b < len(rt.sawBy); b++ {
		if rt.sawBy[b]&(proto.SawLock|proto.SawCommitBackup) != 0 {
			return b
		}
	}
	return -1
}

// fetchLock asks a backup that saw rt's lock record for it (step 4). An
// answer without one clears what that backup claimed, and the next is
// asked; once no transaction lacks a record a backup holds, the region
// locks.
func (m *Machine) fetchLock(rr *regionRecovery, rt *recTx) {
	b := holder(rt)
	if b < 0 {
		return
	}
	dst := int(rr.replicas[b])
	f := &proto.FetchTxState{Config: m.config.ID, Region: rr.region, Tx: rt.id}
	f.ID = m.callResent(dst, f, m.recoveryResend(rr.ctx), func(resp interface{}, err error) {
		if err != nil {
			return
		}
		if s := resp.(*proto.SendTxState); s.Lock != nil {
			rt.lock = s.Lock
			// Also install the record in the participant state so a later
			// COMMIT-RECOVERY can apply the writes (the primary may never
			// have received the original LOCK record).
			m.installPendLock(rt.id, s.Lock)
		} else {
			rt.sawBy[b] &^= proto.SawLock | proto.SawCommitBackup
			m.fetchLock(rr, rt)
		}
		m.lockRegion(rr)
	})
	m.sendCtx(dst, f, rr.ctx)
}

// lockRegion acquires the recovering transactions' locks once every lock
// record a backup holds is here, sharded across threads by coordinator
// thread id with the CPU charged there (§5.3 step 4), then activates the
// region and starts steps 5–6.
func (m *Machine) lockRegion(rr *regionRecovery) {
	rep := m.replica(rr.region)
	if rep == nil || slices.ContainsFunc(rr.txs, func(rt *recTx) bool { return holder(rt) >= 0 }) {
		return
	}
	work := make([][]*recTx, m.c.Opts.Threads)
	for _, rt := range rr.txs {
		th := int(rt.id.Thread) % len(work)
		work[th] = append(work[th], rt)
	}
	left := 1 // sentinel so the region cannot activate before every shard ran
	finish := func() {
		if left--; left == 0 {
			rr.phase = 2
			m.endLockRecSpan(rr)
			m.activateRegion(rr.region)
			m.replicateAndVote(rr)
		}
	}
	for th, txs := range work {
		if txs == nil {
			continue
		}
		left++
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
	finish()
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
		m.learnClasses(lock)
		if len(lock.Regions) > 0 {
			rt.regionHint = append(rt.regionHint[:0], lock.Regions...)
		}
	}
	rt.saw |= proto.SawLock
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
		word := rep.mem.ReadHeader(off)
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
			rep.mem.WriteHeader(off, word|1<<63)
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
		rs := &m.regions[i]
		if rs.rep != nil && rs.rep.primary && !rs.rep.active || rs.recovery != nil && rs.recovery.phase < 2 {
			return
		}
	}
	m.recov.regionsActiveSent = true
	ra := &proto.RegionsActive{ConfigID: m.config.ID}
	ra.ID = m.callResent(int(m.config.CM), ra, m.recoveryResend(m.recoveryTraceCtx()), nil)
	m.sendCtx(int(m.config.CM), ra, m.recoveryTraceCtx())
}

// replicateAndVote is steps 5–6: push lock records to backups missing
// them, then vote to the recovery coordinator, sharded by thread.
func (m *Machine) replicateAndVote(rr *regionRecovery) {
	for _, rt := range rr.txs {
		for b := 1; !rt.voted && rt.lock != nil && b < len(rt.sawBy); b++ {
			if rt.sawBy[b]&(proto.SawLock|proto.SawCommitBackup) == 0 {
				m.replicate(rr, rt, b)
			}
		}
		if replicated(rt) {
			m.voteFor(rr, rt)
		}
	}
}

// replicated reports whether every backup holds rt's lock record: a vote
// waits for that (step 5 → 6: "vote as before after first waiting for log
// replication ... to complete").
func replicated(rt *recTx) bool {
	for b := 1; rt.lock != nil && b < len(rt.sawBy); b++ {
		if rt.sawBy[b]&(proto.SawLock|proto.SawCommitBackup) == 0 {
			return false
		}
	}
	return true
}

// replicate sends rt's lock record to the backup at position b; its answer
// may complete the replication the vote waits for.
func (m *Machine) replicate(rr *regionRecovery, rt *recTx, b int) {
	dst, ctx := int(rr.replicas[b]), m.recoveryTraceCtx()
	r := &proto.ReplicateTxState{Config: m.config.ID, Region: rr.region, Tx: rt.id,
		Lock: rt.lock.Clone()} // records leave a machine as copies of their own
	r.ID = m.callResent(dst, r, m.recoveryResend(ctx), func(_ interface{}, err error) {
		if err == nil {
			rt.sawBy[b] |= proto.SawLock
			if replicated(rt) {
				m.voteFor(rr, rt)
			}
		}
	})
	m.sendCtx(dst, r, ctx)
}

// vote is the region's vote on rt, computed by the rules of §5.3 step 6.
func (m *Machine) vote(region uint32, rt *recTx) *proto.RecoveryVote {
	v := &proto.RecoveryVote{Config: m.config.ID, Region: region, Tx: rt.id, Vote: voteFromSaw(rt.saw)}
	if rt.lock != nil {
		v.Regions = rt.lock.Regions
	}
	return v
}

// voteFor pushes the region's vote to the recovery coordinator, as a call.
func (m *Machine) voteFor(rr *regionRecovery, rt *recTx) {
	if rt.voted {
		return
	}
	rt.voted = true
	coord, ctx, v := m.recoveryCoordinator(rt.id), m.recoveryTraceCtx(), m.vote(rr.region, rt)
	v.ID = m.callResent(coord, v, m.recoveryResend(ctx), nil)
	m.sendFromThreadCtx(int(rt.id.Thread), coord, v, ctx)
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

// onFetchTxState serves a primary's request for a missing lock record
// (step 4).
func (m *Machine) onFetchTxState(src int, f *proto.FetchTxState) {
	if f.Config != m.config.ID {
		return
	}
	var lock *proto.Record
	if rt := m.pend[mtlOf(f.Tx)]; rt != nil {
		lock = rt.lock.Clone()
	}
	m.send(src, &proto.SendTxState{ID: f.ID, Config: m.config.ID, Region: f.Region, Tx: f.Tx, Lock: lock})
}

// onReplicateTxState stores a replicated lock record at a backup (step 5),
// merged into what the backup holds: that can be the transaction's record
// for another region, without this region's writes. One that comes after
// the transaction's truncation here (a resend, or a send its truncation
// overtook) is only acknowledged, as onRecoveryDecision does: the pend entry
// it would make no later truncation cleans.
func (m *Machine) onReplicateTxState(src int, r *proto.ReplicateTxState) {
	if r.Config != m.config.ID || m.replica(r.Region) == nil {
		return
	}
	if !m.truncWindow(r.Tx.Coord()).has(r.Tx.Local) {
		m.installPendLock(r.Tx, r.Lock)
	}
	m.send(src, &proto.ReplicateTxStateAck{ID: r.ID, Config: r.Config, Region: r.Region, Tx: r.Tx})
}

// collectVotes returns transaction id's vote collector, made on first use,
// having learnt the write regions listed.
func (m *Machine) collectVotes(id proto.TxID, regions []uint32) *voteCollector {
	vc := m.recov.votes[id]
	if vc == nil {
		vc = &voteCollector{id: id}
		m.recov.votes[id] = vc
		if m.trb != nil {
			vc.ctx = m.trb.Begin("recovery", "vote-decide", m.c.Eng.Now(),
				trace.RecoveryTraceBit|m.config.ID, 0, int64(id.Local))
		}
	}
	for i := 0; i < len(regions) && !vc.decided; i++ {
		m.regionVote(vc, regions[i])
	}
	return vc
}

// regionVote returns vc's entry for a write region. A region learnt here
// gets a REQUEST-VOTE call to its primary whose first send waits a resend
// interval: the primary's pushed vote normally answers it before then.
// The entry is for immediate use: entries move as regions are learnt.
func (m *Machine) regionVote(vc *voteCollector, region uint32) *regionVote {
	i, ok := slices.BinarySearchFunc(vc.regions, region, func(r regionVote, id uint32) int { return cmp.Compare(r.region, id) })
	if !ok {
		rv := regionVote{region: region}
		if rm := m.mapping(region); rm != nil && len(rm.Replicas) > 0 {
			req := &proto.RequestVote{Config: m.config.ID, Tx: vc.id, Region: region}
			rv.ask = m.callResent(int(rm.Replicas[0]), req, m.recoveryResend(vc.ctx), nil)
		}
		vc.regions = slices.Insert(vc.regions, i, rv)
	}
	return &vc.regions[i]
}

// addParticipant adds machine p to the participants, reporting whether it
// is new.
func (vc *voteCollector) addParticipant(p int) bool {
	i, found := slices.BinarySearch(vc.participants, p)
	if !found {
		vc.participants = slices.Insert(vc.participants, i, p)
	}
	return !found
}

// onRecoveryVote collects a region's vote (step 6) at the recovery
// coordinator and answers a pushed one. Before this machine's own
// NEW-CONFIG-COMMIT it does not: the resend brings the vote back.
func (m *Machine) onRecoveryVote(src int, v *proto.RecoveryVote) {
	if v.Config != m.config.ID || !m.recovering() {
		return
	}
	if v.ID != 0 {
		m.send(src, &rpcReply{ID: v.ID})
	}
	vc := m.collectVotes(v.Tx, v.Regions)
	if vc.addParticipant(src) && vc.decided {
		m.sendDecision(vc, src) // a late voter the decision did not name
	}
	if vc.decided {
		return
	}
	rv := m.regionVote(vc, v.Region)
	if !rv.voted || v.Vote > rv.vote {
		rv.vote, rv.voted = v.Vote, true
	}
	m.answer(rv.ask, nil)
	m.maybeDecide(vc)
}

// onRequestVote answers explicit vote requests, including for transactions
// this primary never classified as recovering (§5.3: primaries with
// records vote as before; without records they vote truncated or unknown).
// The vote answers the request; it is not a call of its own.
func (m *Machine) onRequestVote(src int, rv *proto.RequestVote) {
	// Vote only after this configuration's drain has completed and (if the
	// region is recovering) its lock recovery has merged every replica's
	// knowledge: a premature vote from partial state could read as LOCK a
	// transaction whose COMMIT-BACKUP exists only at a backup, turning a
	// reported commit into an abort. The requester resends.
	if rv.Config != m.config.ID || !m.recovering() || !m.recov.drained {
		return
	}
	if rs := m.region(rv.Region); rs != nil && rs.recovery != nil {
		rr := rs.recovery
		if rr.phase < 2 {
			return
		}
		if i, ok := rr.find(rv.Tx); ok {
			if replicated(rr.txs[i]) { // else it votes when replication completes
				m.send(src, m.vote(rv.Region, rr.txs[i]))
			}
			return
		}
	}
	vote := &proto.RecoveryVote{Config: m.config.ID, Region: rv.Region, Tx: rv.Tx, Vote: proto.VoteUnknown}
	if rt := m.pend[mtlOf(rv.Tx)]; rt != nil && remoteTxTouches(rt, rv.Region) {
		vote.Vote, vote.Regions = voteFromSaw(rt.saw), slices.Clone(rt.regions())
	} else if m.truncWindow(rv.Tx.Coord()).has(rv.Tx.Local) {
		vote.Vote = proto.VoteTruncated
	}
	m.send(src, vote)
}

// maybeDecide applies the decision rule of step 7.
func (m *Machine) maybeDecide(vc *voteCollector) {
	anyCommitBackup, allCompatible, allVoted := false, true, true
	for _, r := range vc.regions {
		if !r.voted {
			allVoted = false
			continue
		}
		switch r.vote {
		case proto.VoteCommitPrimary:
			// Commit-primary short-circuits waiting for all regions.
			m.decide(vc, true)
			return
		case proto.VoteCommitBackup:
			anyCommitBackup = true
		case proto.VoteLock, proto.VoteTruncated:
			// compatible with commit
		default:
			allCompatible = false
		}
	}
	if allVoted && len(vc.regions) > 0 {
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
	// Participants: all replicas of all written regions. No vote is awaited
	// any more.
	for _, r := range vc.regions {
		m.answer(r.ask, nil)
		if rm := m.mapping(r.region); rm != nil {
			for _, x := range rm.Replicas {
				vc.addParticipant(int(x))
			}
		}
	}
	for _, p := range vc.participants {
		if m.isMember(p) {
			m.sendDecision(vc, p)
		}
	}
	// Finish our own in-flight transaction, preserving any outcome
	// already reported to the application. Its Tx stays in phaseDone, out
	// of its pool, and goes to the collector: records written before
	// recovery may still be acked to it.
	if t, ok := m.inflight[vc.id]; ok {
		delete(m.inflight, vc.id)
		t.phase = phaseDone
		// The records recovery makes unnecessary are never written, so
		// their log reservations must be returned (they would otherwise
		// leak ring space forever).
		m.releaseCoordReservations(t)
		if commit {
			if !t.reported {
				t.reported = true
				m.reportCommitted(t)
			}
		} else {
			if t.reported {
				panic("farm: recovery aborted a transaction already reported committed")
			}
			t.releaseAllocs()
			m.Aborted++
			m.c.Counters.Inc("tx_aborted", 1)
			t.report(ErrAborted)
		}
	}
	if vc.unacked == 0 {
		m.truncateRecovery(vc)
	}
}

// sendDecision sends the decision to dst as a call. The answer that leaves
// none unacknowledged sends the truncations.
func (m *Machine) sendDecision(vc *voteCollector, dst int) {
	vc.unacked++
	done := func(_ interface{}, err error) {
		if vc.unacked--; err == nil && vc.unacked == 0 {
			m.truncateRecovery(vc)
		}
	}
	var msg interface{}
	var id *uint64
	if vc.commit {
		d := &proto.CommitRecovery{Config: m.config.ID, Tx: vc.id}
		msg, id = d, &d.ID
	} else {
		d := &proto.AbortRecovery{Config: m.config.ID, Tx: vc.id}
		msg, id = d, &d.ID
	}
	*id = m.callResent(dst, msg, m.recoveryResend(vc.ctx), done)
	m.sendCtx(dst, msg, vc.ctx)
}

// onRecoveryDecision processes COMMIT-RECOVERY / ABORT-RECOVERY at a
// participant: like COMMIT-PRIMARY at primaries and COMMIT-BACKUP at
// backups; ABORT-RECOVERY releases locks (§5.3 step 7). call is the
// decision's call id, which the acknowledgement echoes.
func (m *Machine) onRecoveryDecision(src int, call uint64, id proto.TxID, commit bool) {
	ack := &proto.RecoveryDecisionAck{ID: call, Config: m.config.ID, Tx: id}
	k := mtlOf(id)
	if m.truncWindow(id.Coord()).has(id.Local) {
		// A resent decision for a transaction we already truncated:
		// recreating participant state here would leak a pend entry that no
		// future truncation cleans. Just acknowledge.
		m.send(src, ack)
		return
	}
	rt := m.pend[k]
	if rt == nil {
		rt = m.newRemoteTx(k, id)
	}
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
	m.send(src, ack)
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
	if rt.lock == nil {
		return
	}
	for _, w := range rt.lock.Writes {
		rs := m.region(w.Addr.Region)
		if rs == nil || rs.rep == nil || !rs.rep.primary || rs.recovery == nil {
			continue
		}
		rep := rs.rep
		if _, held := rep.lockOwner[w.Addr.Off]; held {
			continue
		}
		word := rep.mem.ReadHeader(int(w.Addr.Off))
		var heir *recTx
		var heirVersion uint64
		for _, other := range rs.recovery.txs {
			p := m.pend[mtlOf(other.id)]
			if other.lock == nil || p == nil ||
				(other.saw|p.saw)&(proto.SawAbort|proto.SawAbortRecovery|proto.SawCommitRecovery) != 0 {
				continue // nothing to protect, truncated, or decided
			}
			for _, ow := range other.lock.Writes {
				// txs is in mtl order: the first of equal versions inherits.
				if ow.Addr == w.Addr && ow.Version >= regionmem.Version(word) && (heir == nil || ow.Version < heirVersion) {
					heir, heirVersion = other, ow.Version
				}
			}
		}
		if heir != nil {
			rep.mem.WriteHeader(int(w.Addr.Off), word|1<<63)
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
			rep.mem.Unlock(int(w.Addr.Off))
			delete(rep.lockOwner, w.Addr.Off)
		}
	}
}

// truncateRecovery sends TRUNCATE-RECOVERY to every member participant once
// all have acknowledged the decision (§5.3 step 7).
func (m *Machine) truncateRecovery(vc *voteCollector) {
	for _, p := range vc.participants {
		if m.isMember(p) {
			t := &proto.TruncateRecovery{Config: m.config.ID, Tx: vc.id}
			t.ID = m.callResent(p, t, m.recoveryResend(vc.ctx), nil)
			m.sendCtx(p, t, vc.ctx)
		}
	}
}

// onTruncateRecovery reclaims a recovered transaction's state and answers:
// backups apply committed writes, locks are dropped, frames reclaimed. (A
// coordinator the peer table does not hold has no truncated-id set to
// join.)
func (m *Machine) onTruncateRecovery(src int, t *proto.TruncateRecovery) {
	m.truncateTx(t.Tx.Coord(), t.Tx.Local)
	m.send(src, &rpcReply{ID: t.ID})
}
