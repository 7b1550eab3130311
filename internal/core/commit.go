package core

import (
	"slices"

	"farm/internal/fabric"
	"farm/internal/history"
	"farm/internal/nvram"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
	"farm/internal/trace"
)

// maxPiggyIDs bounds how many truncation ids one record carries; the
// reservation for every record includes this budget (Table 1's note: "The
// low bound ... and a transaction identifier for truncation are piggybacked
// on each record").
const maxPiggyIDs = 8

const piggyBudget = 8 * maxPiggyIDs

// commit phases.
const (
	phaseLock = iota
	phaseValidate
	phaseCommitBackup
	phaseCommitPrimary
	phaseDone
)

// coordTx is the coordinator-side state of one committing transaction. It
// comes from the machine's pool (newCoordTx) and goes back when its
// truncation finished (truncFinished) or when the commit failed before any
// reservation was made; one that recovery decides, or that dies with its
// machine, is dropped.
type coordTx struct {
	id proto.TxID
	tx *Tx
	cb func(error)

	phase int

	writeRegions []uint32
	// groups is the write set split by destination machine, one entry per
	// participant (every machine holding records), sorted by machine id —
	// so each protocol phase walks it in deterministic order without
	// sorting anything.
	groups []destGroup
	// slab backs every group's write lists. A recycled coordTx keeps the
	// capacity of groups, writeRegions and slab.
	slab []proto.ObjectWrite
	// primaries and backups count the groups with primWrites (the LOCK,
	// ABORT and COMMIT-PRIMARY fan-out) and with backupWrites (the
	// COMMIT-BACKUP fan-out).
	primaries, backups int

	lockOutstanding int
	lockFailed      bool

	cbOutstanding int

	cpOutstanding int
	reported      bool

	abortOutstanding int // ABORT record acks still due

	// recovering is set when reconfiguration classifies this transaction
	// as recovering (§5.3): normal-path acks and replies are ignored from
	// then on and the outcome comes from vote/decide.
	recovering bool
	// lastProgress is when the commit last advanced (started, or received
	// a lock/validate reply); the stall watchdog aborts lock/validate-phase
	// transactions whose replies were lost to network faults.
	lastProgress sim.Time
	// truncLeft counts the participants whose truncation queue holds this
	// transaction.
	truncLeft int

	// traceCtx is a copy of the transaction's root span context (it
	// survives the root span closing at the commit report, because the
	// TRUNCATE phase outlives it); phaseCtx is the currently open commit-
	// phase child span; truncCtx covers queueing → delivery of truncation.
	traceCtx trace.Ctx
	phaseCtx trace.Ctx
	truncCtx trace.Ctx
}

// destGroup is one participant machine's share of a committing
// transaction.
type destGroup struct {
	dst int
	// primWrites are the written objects dst is primary for (its LOCK
	// record); backupWrites those it backs (its COMMIT-BACKUP record).
	// nPrim/nBackup are their final lengths, counted before they are filled.
	primWrites     []proto.ObjectWrite
	backupWrites   []proto.ObjectWrite
	nPrim, nBackup int
	// lockAnswered: dst's verdict on the LOCK record came in.
	lockAnswered bool
	// res holds the payload sizes reserved in dst's log, consumed as
	// records are written.
	res resSet
}

// retiredCommit stands in, in the Tx it served, for a coordTx gone back to
// the pool: a validation verdict still on its way finds it done and is
// ignored, and is not taken for a read-only commit's (validated,
// validateSet). Nothing writes to it.
var retiredCommit = coordTx{phase: phaseDone}

// newCoordTx returns a pooled coordTx for t's commit, which holds t until
// putCoordTx.
func (m *Machine) newCoordTx(t *Tx) *coordTx {
	var ct *coordTx
	if k := len(m.ctFree); k > 0 {
		ct = m.ctFree[k-1]
		m.ctFree = m.ctFree[:k-1]
	} else {
		ct = &coordTx{}
	}
	ct.tx, ct.cb = t, t.reportFn
	t.committing = true
	return ct
}

// putCoordTx returns ct to the pool, reset whole: its write lists alias the
// Tx's values and tx pins the Tx, so every element is cleared. The Tx is cut
// from it first: a verdict that arrives later must not reach whichever
// commit takes ct next. The Tx goes back to its own pool if nothing else
// holds it (Tx.release).
func (m *Machine) putCoordTx(ct *coordTx) {
	t := ct.tx
	if t.ct == ct {
		t.ct = &retiredCommit
	}
	clear(ct.groups)
	clear(ct.slab)
	*ct = coordTx{groups: ct.groups[:0], writeRegions: ct.writeRegions[:0], slab: ct.slab[:0]}
	m.ctFree = append(m.ctFree, ct)
	t.committing = false
	t.release()
}

// group returns dst's group, or nil if dst is not a participant.
func (ct *coordTx) group(dst int) *destGroup {
	for i := range ct.groups {
		if ct.groups[i].dst == dst {
			return &ct.groups[i]
		}
	}
	return nil
}

// groupFor returns dst's group, inserting an empty one in sorted position
// if needed. The pointer is valid until the next insertion.
func (ct *coordTx) groupFor(dst int) *destGroup {
	i := 0
	for i < len(ct.groups) && ct.groups[i].dst < dst {
		i++
	}
	if i == len(ct.groups) || ct.groups[i].dst != dst {
		if ct.groups == nil {
			// Room for two regions' replica sets before growing.
			ct.groups = make([]destGroup, 0, 2*ct.tx.m.c.Opts.Replication)
		}
		ct.groups = append(ct.groups, destGroup{})
		copy(ct.groups[i+1:], ct.groups[i:])
		ct.groups[i] = destGroup{dst: dst}
	}
	return &ct.groups[i]
}

// beginPhase opens the named commit-phase child span, closing whichever
// phase span was open (phases are strictly sequential, §4). No-ops for
// untraced transactions.
func (m *Machine) beginPhase(ct *coordTx, name string) {
	if !ct.traceCtx.Valid() {
		return
	}
	now := m.c.Eng.Now()
	if ct.phaseCtx.Valid() {
		m.trb.End(ct.phaseCtx, now, 0)
	}
	ct.phaseCtx = m.trb.Begin("tx", name, now, ct.traceCtx.Trace, ct.traceCtx.Span, 0)
}

// endPhase closes the open commit-phase span, if any.
func (m *Machine) endPhase(ct *coordTx) {
	if ct.phaseCtx.Valid() {
		m.trb.End(ct.phaseCtx, m.c.Eng.Now(), 0)
		ct.phaseCtx = trace.Ctx{}
	}
}

// Commit runs the four-phase commit protocol of §4 / Figure 4 and reports
// the outcome through cb. Read-only transactions skip straight to
// validation and have no commit phase. t and the bytes it handed out stay
// valid until cb returns, and are not to be used after.
func (t *Tx) Commit(cb func(err error)) {
	if t.finished {
		panic(errTxDone)
	}
	t.finished = true
	t.appCb = cb
	t.commit()
}

// commit starts the commit, or parks it until it can start.
func (t *Tx) commit() {
	m := t.m
	if !m.alive {
		return
	}

	if m.clientsBlocked {
		// §5.2: commits block alongside reads while a reconfiguration is
		// in sight. A fenced (possibly evicted) coordinator must not push
		// LOCK records built on pre-eviction reads; if a new configuration
		// arrives the retry locks at the observed versions and aborts on
		// staleness.
		m.clientQueue = append(m.clientQueue, t.commit)
		return
	}

	if t.nWrites == 0 {
		t.commitReadOnly()
		return
	}

	// Wait for any blocked (recovering) write region before starting.
	for i := t.firstW; i >= 0; i = t.set[i].wnext {
		if region := t.set[i].addr.Region; m.regionBlocked(region) {
			m.blockUntilActive(region, t.commit)
			return
		}
	}

	ct := m.newCoordTx(t)

	// Group the write set by primary and backup machines: size the groups
	// first, so that all their write lists are carved out of one slab.
	total := 0
	for i := t.firstW; i >= 0; i = t.set[i].wnext {
		addr := t.set[i].addr
		rm := m.mapping(addr.Region)
		if rm == nil || len(rm.Replicas) < 1 {
			m.putCoordTx(ct)
			t.releaseAllocs()
			m.failTx(t.reportFn, ErrUnavailable)
			return
		}
		if !slices.Contains(ct.writeRegions, addr.Region) {
			ct.writeRegions = append(ct.writeRegions, addr.Region)
		}
		ct.groupFor(int(rm.Replicas[0])).nPrim++
		for _, b := range rm.Replicas[1:] {
			ct.groupFor(int(b)).nBackup++
		}
		total += len(rm.Replicas)
	}
	if cap(ct.slab) < total {
		ct.slab = make([]proto.ObjectWrite, total)
	}
	ct.slab = ct.slab[:total]
	slab := ct.slab
	for i := range ct.groups {
		g := &ct.groups[i]
		g.primWrites, slab = slab[:0:g.nPrim], slab[g.nPrim:]
		g.backupWrites, slab = slab[:0:g.nBackup], slab[g.nBackup:]
		if g.nPrim > 0 {
			ct.primaries++
		}
		if g.nBackup > 0 {
			ct.backups++
		}
	}
	for i := t.firstW; i >= 0; i = t.set[i].wnext {
		e := &t.set[i]
		ow := proto.ObjectWrite{Addr: e.addr, Version: e.version, Allocated: e.allocated, Value: e.value}
		replicas := m.mapping(e.addr.Region).Replicas
		g := ct.group(int(replicas[0]))
		g.primWrites = append(g.primWrites, ow)
		for _, b := range replicas[1:] {
			g = ct.group(int(b))
			g.backupWrites = append(g.backupWrites, ow)
		}
	}

	// Assign the transaction id ⟨c, m, t, l⟩ at the start of commit (§5.3).
	m.nextLocal[t.thread]++
	ct.id = proto.TxID{
		Config:  m.config.ID,
		Machine: uint16(m.ID),
		Thread:  uint16(t.thread),
		Local:   m.nextLocal[t.thread],
	}

	// Reserve log space for every record this commit and its truncation
	// will need (§4): LOCK + COMMIT-PRIMARY/ABORT at primaries,
	// COMMIT-BACKUP at backups, and a truncate record everywhere.
	if !m.reserveCommit(ct) {
		m.truncThreads[t.thread].add(ct.id.Local)
		m.putCoordTx(ct)
		t.releaseAllocs()
		m.failTx(t.reportFn, ErrNoSpace)
		return
	}

	m.inflight[ct.id] = ct
	m.c.Counters.Inc("tx_commit_started", 1)
	ct.phase = phaseLock
	ct.lastProgress = m.c.Eng.Now()
	ct.traceCtx = t.ctx
	m.beginPhase(ct, "LOCK")
	m.sendLocks(ct)
}

// report delivers the commit's outcome, on whatever path it was decided:
// first what a history-recorded or traced transaction owes (the recorded
// outcome and its simulated time — a coordinator that dies before reporting
// leaves the event indeterminate, exactly what the checker's commit
// inference is for — and the root span's end), then the application's
// callback. Once that returns the application is finished with t.
func (t *Tx) report(err error) {
	if t.hrec != nil {
		o := history.Committed
		if err != nil {
			o = history.Aborted
		}
		t.histFinish(o)
	}
	t.endTxSpan(err)
	t.appCb(err)
	t.appDone = true
	t.release()
}

// failTx reports, on the coordinator thread, a commit that failed before
// any record was written: ErrNoSpace (a participant's log had no room for
// the reservations) or ErrUnavailable (a written region has no mapping).
// Neither is a conflict, so each is counted under its own name.
func (m *Machine) failTx(cb func(error), err error) {
	cell := m.c.cNoLogSpace
	if err == ErrUnavailable {
		cell = m.c.cUnavailable
	}
	m.c.Eng.After(cpuLocal, func() {
		if m.alive {
			m.Aborted++
			*cell++
			cb(err)
		}
	})
}

// recordSize is the reservation for rec: its encoding plus room for a full
// truncation piggyback.
func recordSize(rec *proto.Record) int { return proto.RecordSize(rec) + piggyBudget }

// truncateRecordSize is the reservation for a worst-case explicit
// TRUNCATE record: an empty record plus a full piggyback.
var truncateRecordSize = recordSize(&proto.Record{Type: proto.RecTruncate})

// resSet holds one participant's outstanding reservations by record kind
// (0 = none). Truncate-record reservations are pooled per destination in
// truncQueue instead, because truncation is batched across transactions;
// pooled counts this transaction's contributions to that pool.
type resSet struct{ lock, cp, cb, pooled int }

// releaseRes returns every unconsumed reservation in r to p's log.
func (m *Machine) releaseRes(p *peer, r *resSet) {
	for _, s := range [...]int{r.lock, r.cp, r.cb} {
		if s > 0 {
			p.logW.Release(s)
		}
	}
	for i := 0; i < r.pooled; i++ {
		m.truncPoolRelease(p)
	}
	*r = resSet{}
}

// reserveCommit makes all per-participant ring reservations, rolling back
// on failure.
func (m *Machine) reserveCommit(ct *coordTx) bool {
	rec := proto.Record{Tx: ct.id, Regions: ct.writeRegions}
	smallRec := recordSize(&rec)
	for i := range ct.groups {
		g := &ct.groups[i]
		if !m.reserveGroup(g, &rec, smallRec) {
			for j := 0; j <= i; j++ {
				if p := m.peer(ct.groups[j].dst); p != nil {
					m.releaseRes(p, &ct.groups[j].res)
				}
			}
			return false
		}
	}
	return true
}

// reserveGroup reserves, in g.dst's log, LOCK + COMMIT-PRIMARY/ABORT space
// if it is a primary, COMMIT-BACKUP space if it is a backup, and exactly
// ONE pooled truncate-record slot: a machine that is both primary (for one
// region) and backup (for another) still receives a single truncation for
// the transaction. rec carries the transaction's id and regions; smallRec
// is its size without writes.
func (m *Machine) reserveGroup(g *destGroup, rec *proto.Record, smallRec int) bool {
	p := m.peer(g.dst)
	if p == nil {
		return false // a mapping names a machine that does not exist
	}
	w := p.logW
	if len(g.primWrites) > 0 {
		rec.Writes = g.primWrites
		if g.res.lock = recordSize(rec); !w.Reserve(g.res.lock) {
			g.res.lock = 0
			return false
		}
		if !w.Reserve(smallRec) {
			return false
		}
		g.res.cp = smallRec
	}
	if len(g.backupWrites) > 0 {
		rec.Writes = g.backupWrites
		if g.res.cb = recordSize(rec); !w.Reserve(g.res.cb) {
			g.res.cb = 0
			return false
		}
	}
	if !m.truncPoolReserve(p) {
		return false
	}
	g.res.pooled++
	return true
}

// releaseCoordReservations returns every unconsumed reservation of a
// transaction finished outside the normal record-writing path (recovery
// decisions). Reservations toward machines that left the configuration
// vanished with their rings.
func (m *Machine) releaseCoordReservations(ct *coordTx) {
	for i := range ct.groups {
		g := &ct.groups[i]
		if p := m.peer(g.dst); p != nil && m.isMember(g.dst) {
			m.releaseRes(p, &g.res)
		}
		g.res = resSet{}
	}
}

// takeReservation consumes the reservation matching a record kind.
func (ct *coordTx) takeReservation(dst int, typ proto.RecordType) int {
	g := ct.group(dst)
	if g == nil {
		return -1
	}
	var s *int
	switch typ {
	case proto.RecLock:
		s = &g.res.lock
	case proto.RecCommitPrimary, proto.RecAbort:
		s = &g.res.cp
	case proto.RecCommitBackup:
		s = &g.res.cb
	default:
		return -1
	}
	size := *s
	*s = 0
	if size == 0 {
		return -1
	}
	return size
}

// recWrite is one record on its way into a participant's log: one of a
// committing transaction's, scheduled on the coordinator thread (one verb
// per record, or a memory write when the log is this machine's own), or an
// explicit TRUNCATE (ct nil, written at once by flushTruncations). It is
// encoded straight into a ring frame with piggybacked truncation ids and
// acked by the NIC. It is pooled like msgTask, runFn/ackFn bound once. rec
// never leaves the coordinator — it is encoded and dropped, and participants
// decode the ring bytes — which is what makes reusing it, and ids (the
// backing store of rec.TruncIDs), safe.
type recWrite struct {
	m   *Machine
	ct  *coordTx
	dst int
	rec proto.Record
	ids []uint64

	runFn func()
	ackFn func(error)
}

// newRecWrite returns a pooled recWrite of a record of type typ from
// transaction tx, for dst's log.
func (m *Machine) newRecWrite(ct *coordTx, dst int, typ proto.RecordType, tx proto.TxID) *recWrite {
	var op *recWrite
	if k := len(m.recFree); k > 0 {
		op = m.recFree[k-1]
		m.recFree = m.recFree[:k-1]
	} else {
		op = &recWrite{m: m}
		op.runFn = op.run
		op.ackFn = op.ack
	}
	op.ct, op.dst = ct, dst
	op.rec = proto.Record{Type: typ, Tx: tx, TruncIDs: op.ids[:0]}
	return op
}

// writeTxRecord sends ct's record of the given type to g's machine: LOCK
// and COMMIT-BACKUP carry the group's writes, the others only the header.
func (m *Machine) writeTxRecord(ct *coordTx, typ proto.RecordType, g *destGroup) {
	op := m.newRecWrite(ct, g.dst, typ, ct.id)
	op.rec.Regions = ct.writeRegions
	switch typ {
	case proto.RecLock:
		op.rec.Writes = g.primWrites
	case proto.RecCommitBackup:
		op.rec.Writes = g.backupWrites
	}
	cost := cpuVerb
	if g.dst == m.ID {
		// Its own log: a memory write, no verb to issue or reap. The record is
		// handled where it lands (onRemoteWrite), so its per-object work is
		// charged here, to the item that writes it.
		objs := sim.Time(len(op.rec.Writes)) * cpuPerObject
		*m.c.cCPURecords += uint64(objs)
		cost = cpuLocal + objs
	}
	m.OnThread(ct.tx.thread, cost, op.runFn)
}

func (op *recWrite) run() {
	p := op.m.peer(op.dst)
	if !op.write(p, op.ct.takeReservation(p.id, op.rec.Type)) {
		// Only possible when the reservation is gone (unreserved write).
		op.ack(ErrNoSpace)
	}
}

// write attaches p's queued truncation ids to the record and appends it to
// p's log, in the reservation of reserved bytes (-1: none). Without space
// it puts the ids back and reports false; the caller then acks or drops op.
func (op *recWrite) write(p *peer, reserved int) bool {
	m, rec := op.m, &op.rec
	m.attachPiggyback(p, rec)
	op.ids = rec.TruncIDs[:0] // keep the buffer attachPiggyback may have grown
	buf, ok := p.logW.Begin(proto.RecordSize(rec), reserved)
	if !ok {
		m.requeuePiggyback(p, rec)
		return false
	}
	proto.AppendRecord(buf[:0], rec)
	p.logW.Commit(op.ackFn)
	return true
}

// ack is the hardware ack of the record's ring write: settle the
// piggybacked truncations, recycle, then advance the commit protocol.
func (op *recWrite) ack(err error) {
	m, ct, dst, typ := op.m, op.ct, op.dst, op.rec.Type
	if err == nil {
		m.truncDelivered(m.peer(dst), len(op.rec.TruncIDs), typ == proto.RecTruncate)
	}
	op.ct, op.rec = nil, proto.Record{}
	m.recFree = append(m.recFree, op)
	switch typ {
	case proto.RecAbort:
		m.onAbortAck(ct)
	case proto.RecCommitBackup:
		m.onBackupAck(ct, dst, err)
	case proto.RecCommitPrimary:
		m.onPrimaryAck(ct, dst, err)
	}
}

// sendLocks writes a LOCK record to the log at every primary of a written
// object (§4 step 1).
func (m *Machine) sendLocks(ct *coordTx) {
	ct.lockOutstanding = ct.primaries
	for i := range ct.groups {
		if g := &ct.groups[i]; len(g.primWrites) > 0 {
			m.writeTxRecord(ct, proto.RecLock, g)
		}
	}
}

// onLockReply handles primary src's lock result: Table 2's LOCK-REPLY from a
// remote primary, the handed-off verdict (lockVerdict) from this machine.
// Each primary's first verdict counts; the fabric may deliver a LOCK-REPLY
// twice.
func (m *Machine) onLockReply(src int, tx proto.TxID, ok bool) {
	ct := m.inflight[tx]
	if ct == nil || ct.recovering || ct.phase != phaseLock {
		return
	}
	g := ct.group(src)
	if g == nil || len(g.primWrites) == 0 || g.lockAnswered {
		return
	}
	g.lockAnswered = true
	if !ok {
		ct.lockFailed = true
	}
	ct.lastProgress = m.c.Eng.Now()
	ct.lockOutstanding--
	if ct.lockOutstanding > 0 {
		return
	}
	if ct.lockFailed {
		m.abortTx(ct, ErrConflict)
		return
	}
	ct.phase = phaseValidate
	m.validate(ct)
}

// abortTx writes ABORT records to all lock-phase primaries, releases
// unused reservations, and reports the conflict (§4 step 1).
func (m *Machine) abortTx(ct *coordTx, err error) {
	ct.phase = phaseDone
	m.endPhase(ct)
	delete(m.inflight, ct.id)
	ct.tx.releaseAllocs()
	ct.abortOutstanding = ct.primaries
	for i := range ct.groups {
		g := &ct.groups[i]
		// No backup will see this transaction: release its COMMIT-BACKUP
		// space and, for pure backups, their pooled truncate reservation —
		// they get no record to truncate.
		p := m.peer(g.dst)
		if g.res.cb > 0 {
			p.logW.Release(g.res.cb)
			g.res.cb = 0
		}
		if len(g.primWrites) == 0 {
			m.truncPoolRelease(p)
			continue
		}
		m.writeTxRecord(ct, proto.RecAbort, g)
	}
	m.c.Counters.Inc("tx_aborted", 1)
	m.Aborted++
	ct.cb(err)
}

// onAbortAck queues the aborted transaction's truncation once every
// primary's ABORT record is acked (delivered or given up on).
func (m *Machine) onAbortAck(ct *coordTx) {
	ct.abortOutstanding--
	if ct.abortOutstanding == 0 && m.alive {
		m.queueTruncation(ct, true)
	}
}

// validate is a read-write commit's step 2 (§4): every read-but-not-written
// object goes through validateSet, and the last success moves on to
// COMMIT-BACKUP.
func (m *Machine) validate(ct *coordTx) {
	m.beginPhase(ct, "VALIDATE")
	t := ct.tx
	var vs []valRead
	if !m.c.Opts.SkipReadValidation {
		// (Options.SkipReadValidation is a TEST-ONLY consistency bug: commit
		// without checking that read versions still stand.)
		vs = t.validationSet(0, 0)
	}
	if len(vs) == 0 {
		ct.phase = phaseCommitBackup
		m.commitBackups(ct)
		return
	}
	t.ct = ct
	t.validateSet(vs, ct.phaseCtx)
}

// commitReadOnly commits a transaction that wrote nothing. It serializes at
// its last read: if that read ran alone, every other read finished before it
// was issued, so validating those alone proves they held at its instant
// (DESIGN.md §5); otherwise every read is validated. With nothing left to
// validate it commits after one local step.
func (t *Tx) commitReadOnly() {
	m := t.m
	var vs []valRead
	if !m.c.Opts.SkipReadValidation {
		*m.c.cValidateSkipped += uint64(t.aloneHi - t.aloneLo)
		vs = t.validationSet(t.aloneLo, t.aloneHi)
	}
	if len(vs) == 0 {
		t.valLeft = 1
		t.live++
		m.c.Eng.After(cpuLocal, m.newValOp(t, 0).passFn)
		return
	}
	t.validateSet(vs, t.ctx)
}

// validateSet validates vs, a read set sorted by primary (§4 step 2), from
// t's thread: direct header loads where this machine is the primary, one
// VALIDATE RPC to a primary holding more than tr of the objects, one-sided
// reads of the version words otherwise. A primary that is unknown or not a
// member fails its share at once. ctx parents the RPCs' spans. Every verdict
// goes to validated, and each is due to t (Tx.live) until it has run.
func (t *Tx) validateSet(vs []valRead, ctx trace.Ctx) {
	m := t.m
	// Every verdict arrives through the engine, so the count may grow as the
	// loop issues.
	for i, j := 0, 0; i < len(vs); i = j {
		j = primaryRun(vs, i)
		pm, entries := vs[i].pm, vs[i:j]
		switch {
		case pm == m.ID:
		case pm == -1 || !m.isMember(pm):
			t.valLeft++
			t.live++
			m.OnThread(t.thread, cpuLocal, func() { t.validated(false); t.settle() })
			continue
		case len(entries) > m.c.Opts.ValidateRPCThreshold:
			// A call that fails aborts a read-only commit, which holds no
			// locks; a read-write commit's is the stall sweep's and
			// recovery's to settle, like a lost LOCK-REPLY.
			req := t.validateReqFor(entries)
			req.ID = m.call(pm, req, func(resp interface{}, err error) {
				switch {
				case err == nil:
					t.validated(resp.(*proto.ValidateReply).OK)
				case t.ct == nil && !t.valFailed:
					t.m.c.Counters.Inc("tx_ro_validate_stalled", 1)
					t.valFail(ErrAborted)
				}
				t.settle()
			})
			*m.c.cValidateRPCs++
			t.valLeft++
			t.live++
			m.sendFromThreadCtx(t.thread, pm, req, ctx)
			continue
		}
		t.valLeft += len(entries)
		for _, e := range entries {
			m.validateObject(t, e)
		}
	}
}

// validated acts on one verdict of t's validation: a header load, a
// one-sided read or a VALIDATE-REPLY. The first failure aborts the commit;
// verdicts after it are ignored, as are those reaching a read-write commit
// that left the validate phase (the stall sweep aborted it) or is
// recovering. After the last success a read-write commit moves on to
// COMMIT-BACKUP and a read-only commit is reported.
func (t *Tx) validated(ok bool) {
	ct := t.ct
	if t.valFailed || ct != nil && (ct.phase != phaseValidate || ct.recovering) {
		return
	}
	if !ok {
		t.valFail(ErrConflict)
		return
	}
	if ct != nil {
		ct.lastProgress = t.m.c.Eng.Now()
	}
	t.valLeft--
	if t.valLeft > 0 {
		return
	}
	if ct == nil {
		// The report is lease-fenced like the read-write path, so a
		// coordinator that validated against replicas the configuration has
		// moved past cannot vouch for a stale snapshot.
		t.m.reportCommitted(t.reportFn)
		return
	}
	ct.phase = phaseCommitBackup
	t.m.commitBackups(ct)
}

// valFail ends t's validation with err: a read-write commit aborts, which
// releases its locks; a read-only commit is reported aborted.
func (t *Tx) valFail(err error) {
	t.valFailed = true
	if t.ct != nil {
		t.m.abortTx(t.ct, err)
		return
	}
	t.m.Aborted++
	t.m.c.Counters.Inc("tx_aborted", 1)
	t.report(err)
}

// validateObject schedules the validation of e, whose primary is this
// machine or a member validated by one-sided reads, on t's thread: its
// verdict is due to t from now on.
func (m *Machine) validateObject(t *Tx, e valRead) {
	*m.c.cValidateReads++
	t.live++
	q := &m.valQueues[t.thread]
	q.push(valStep{t: t, v: e})
	cost := cpuVerb
	if e.pm == m.ID {
		// Local validation: direct header loads.
		cost = cpuLocal
	}
	m.pool.ByIndex(t.thread).Do(cost, q.runFn)
}

// valQueue is one worker thread's validation steps, in the order they were
// scheduled on it: the thread runs its items in order, so a run of runFn,
// bound once, is the head's. The steps wait here rather than in an op each,
// so nothing is held per object while it queues. A ring, grown by
// doubling.
type valQueue struct {
	m       *Machine
	steps   []valStep
	head, n int
	runFn   func()
}

// valStep is a read-set object of t's validation waiting on the thread.
type valStep struct {
	t *Tx
	v valRead
}

func (q *valQueue) push(s valStep) {
	if q.n == len(q.steps) {
		grown := make([]valStep, 2*len(q.steps))
		for i := range q.n {
			grown[i] = q.steps[(q.head+i)%len(q.steps)]
		}
		q.steps, q.head = grown, 0
	}
	q.steps[(q.head+q.n)%len(q.steps)] = s
	q.n++
}

// run takes the head step. Where this machine is the object's primary it
// loads the header and acts on the verdict; elsewhere it reads the version
// word with a valOp. A step whose machine died is dropped, as a thread item
// guarded by alive is.
func (q *valQueue) run() {
	s := q.steps[q.head]
	q.steps[q.head] = valStep{}
	q.head = (q.head + 1) % len(q.steps)
	q.n--
	m, t := q.m, s.t
	if !m.alive {
		return
	}
	e := &t.set[s.v.i]
	if s.v.pm == m.ID {
		rep := m.replica(e.addr.Region)
		t.validated(rep != nil && validHeaderWord(rep.mem.ReadHeader(int(e.addr.Off)), e.version))
		t.settle()
		return
	}
	op := m.newValOp(t, s.v.i)
	m.nic.ReadInto(fabric.MachineID(s.v.pm), nvram.RegionID(e.addr.Region), int(e.addr.Off), op.hdr[:], op.readFn)
}

// valOp is a verdict of t's validation in flight: a one-sided read of a
// read-set object's version word, or the one local step of a read-only
// commit with nothing to validate (pass). It is pooled like msgTask, readFn
// and passFn bound once, and names its object by position in the
// transaction's table; it is recycled before the verdict is acted on,
// because that can run the application's commit callback. One that dies
// with its machine is dropped, never recycled.
type valOp struct {
	m *Machine
	t *Tx
	i int32
	// hdr is where the read lands.
	hdr [regionmem.HeaderSize]byte

	readFn func([]byte, error)
	passFn func()
}

// newValOp returns a pooled valOp for t's verdict on t.set[i].
func (m *Machine) newValOp(t *Tx, i int32) *valOp {
	var op *valOp
	if k := len(m.valFree); k > 0 {
		op = m.valFree[k-1]
		m.valFree = m.valFree[:k-1]
	} else {
		op = &valOp{m: m}
		op.readFn = op.readDone
		op.passFn = op.pass
	}
	op.t, op.i = t, i
	return op
}

func (op *valOp) recycle() (t *Tx, e *txEntry) {
	t, e = op.t, &op.t.set[op.i]
	op.t = nil
	op.m.valFree = append(op.m.valFree, op)
	return
}

// pass is the verdict of a read-only commit with nothing left to validate.
func (op *valOp) pass() {
	m, t := op.m, op.t
	op.t = nil
	m.valFree = append(m.valFree, op)
	if m.alive {
		t.validated(true)
	}
	t.settle()
}

// readDone takes the version word out of hdr (raw) before the op is
// recycled.
func (op *valOp) readDone(raw []byte, err error) {
	m, ok := op.m, err == nil
	var word uint64
	if ok {
		word = regionmem.ReadHeader(raw, 0)
	}
	t, e := op.recycle()
	if m.alive {
		t.validated(ok && validHeaderWord(word, e.version))
	}
	t.settle()
}

// valRead is one read-set entry — its address and position in the table —
// tagged with its primary (-1 = unknown).
type valRead struct {
	addr proto.Addr
	pm   int
	i    int32
}

// validationSet returns the read-but-not-written objects sorted by primary
// then address: each run of equal pm is that primary's share of the
// validation, and the whole walk is deterministic. The slice is the
// machine's scratch, valid until its next validationSet: validateSet's.
func (t *Tx) validationSet(skipLo, skipHi int32) []valRead {
	vs := t.m.valScratch[:0]
	for i := range t.set {
		if e := &t.set[i]; e.read && !e.written && (int32(i) < skipLo || int32(i) >= skipHi) {
			vs = append(vs, valRead{addr: e.addr, pm: t.m.primaryOf(e.addr.Region), i: int32(i)})
		}
	}
	t.m.valScratch = vs
	slices.SortFunc(vs, func(a, b valRead) int {
		if a.pm != b.pm {
			return a.pm - b.pm
		}
		return addrCmp(a.addr, b.addr)
	})
	return vs
}

// primaryRun returns the end of the run of entries sharing vs[i]'s primary.
func primaryRun(vs []valRead, i int) int {
	j := i + 1
	for j < len(vs) && vs[j].pm == vs[i].pm {
		j++
	}
	return j
}

func (t *Tx) validateReqFor(entries []valRead) *proto.ValidateReq {
	req := &proto.ValidateReq{
		Addrs:    make([]proto.Addr, len(entries)),
		Versions: make([]uint64, len(entries)),
	}
	for i, v := range entries {
		req.Addrs[i], req.Versions[i] = t.set[v.i].addr, t.set[v.i].version
	}
	return req
}

func validHeaderWord(word, version uint64) bool {
	return !regionmem.Locked(word) && regionmem.Version(word) == version
}

// commitBackups writes COMMIT-BACKUP records to every backup's
// non-volatile log and waits for all hardware acks, without interrupting
// any backup CPU (§4 step 3).
func (m *Machine) commitBackups(ct *coordTx) {
	m.beginPhase(ct, "COMMIT-BACKUP")
	ct.cbOutstanding = ct.backups
	if ct.backups == 0 {
		ct.phase = phaseCommitPrimary
		m.commitPrimaries(ct)
		return
	}
	for i := range ct.groups {
		if g := &ct.groups[i]; len(g.backupWrites) > 0 {
			m.writeTxRecord(ct, proto.RecCommitBackup, g)
		}
	}
}

func (m *Machine) onBackupAck(ct *coordTx, bm int, err error) {
	if !m.alive || ct.recovering || ct.phase != phaseCommitBackup {
		return
	}
	if err != nil {
		// The ring writer retried far longer than any transient fault
		// episode: the backup is effectively unreachable. The transaction
		// must wait for recovery (the backup may hold its COMMIT-BACKUP
		// record), but the membership layer should know about the dead
		// destination.
		m.reportWriteFailure(bm)
		return
	}
	// Precise membership: ignore acks from non-members (§5.2).
	if !m.isMember(bm) {
		return
	}
	ct.cbOutstanding--
	if ct.cbOutstanding == 0 {
		ct.phase = phaseCommitPrimary
		m.commitPrimaries(ct)
	}
}

// commitPrimaries writes COMMIT-PRIMARY records; completion is reported to
// the application on the first hardware ack (§4 step 4). Truncation is
// queued once all primaries acked (§4 step 5).
func (m *Machine) commitPrimaries(ct *coordTx) {
	m.beginPhase(ct, "COMMIT-PRIMARY")
	ct.cpOutstanding = ct.primaries
	for i := range ct.groups {
		if g := &ct.groups[i]; len(g.primWrites) > 0 {
			m.writeTxRecord(ct, proto.RecCommitPrimary, g)
		}
	}
}

func (m *Machine) onPrimaryAck(ct *coordTx, pm int, err error) {
	if !m.alive || ct.recovering {
		return
	}
	if err != nil {
		m.reportWriteFailure(pm)
		return
	}
	if !m.isMember(pm) {
		return
	}
	if !ct.reported {
		ct.reported = true
		m.reportCommitted(ct.cb)
	}
	ct.cpOutstanding--
	if ct.cpOutstanding == 0 {
		ct.phase = phaseDone
		m.endPhase(ct)
		delete(m.inflight, ct.id)
		m.queueTruncation(ct, false)
	}
}

// selfLeaseOK reports whether this machine may tell its application a
// transaction committed: every lease it watches is current, so it cannot
// have been evicted without knowing it. Leases are exactly the mechanism
// the paper uses to fence a machine before the surviving configuration
// acts without it (§5.2) — a coordinator whose lease has lapsed may hold
// hardware acks from a configuration that no longer exists, and recovery
// may be deciding its transaction's real fate right now.
func (m *Machine) selfLeaseOK() bool {
	return m.lease == nil || m.lease.fresh()
}

// fencedReport runs an application-visible success report now if the
// machine's membership is provably current, and defers it otherwise. A
// deferred report flushes when (if ever) the lease is renewed; until then
// the application sees the transaction as in flight — the honest answer,
// since only recovery on the surviving configuration knows the outcome.
func (m *Machine) fencedReport(report func()) {
	if m.selfLeaseOK() {
		report()
		return
	}
	m.c.Counters.Inc("report_fenced", 1)
	m.fencedReports = append(m.fencedReports, report)
}

// flushFencedReports delivers deferred outcome reports; called from the
// lease tick so delivery is deterministic.
func (m *Machine) flushFencedReports() {
	if len(m.fencedReports) == 0 || !m.alive || !m.selfLeaseOK() {
		return
	}
	reports := m.fencedReports
	m.fencedReports = nil
	for _, r := range reports {
		r()
	}
}

// reportCommitted finalizes a successful commit at the application. Only a
// fenced report needs a closure to defer; the common one runs at once.
func (m *Machine) reportCommitted(cb func(error)) {
	if !m.selfLeaseOK() {
		m.fencedReport(func() { m.committed(cb) })
		return
	}
	m.committed(cb)
}

func (m *Machine) committed(cb func(error)) {
	m.Committed++
	m.c.Counters.Inc("tx_committed", 1)
	cb(nil)
}
