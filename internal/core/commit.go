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

// commit phases of a read-write transaction (Tx.phase). phaseIdle: none is
// under way — before Commit, through a read-only commit, and again once the
// truncation finished.
const (
	phaseIdle = iota
	phaseLock
	phaseValidate
	phaseCommitBackup
	phaseCommitPrimary
	phaseDone
)

// destGroup is one participant machine's share of a read-write commit.
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

// group returns dst's group, or nil if dst is not a participant.
func (t *Tx) group(dst int) *destGroup {
	for i := range t.groups {
		if t.groups[i].dst == dst {
			return &t.groups[i]
		}
	}
	return nil
}

// groupFor returns dst's group, inserting an empty one in sorted position
// if needed. The pointer is valid until the next insertion.
func (t *Tx) groupFor(dst int) *destGroup {
	i := 0
	for i < len(t.groups) && t.groups[i].dst < dst {
		i++
	}
	if i == len(t.groups) || t.groups[i].dst != dst {
		if t.groups == nil {
			// Room for two regions' replica sets before growing.
			t.groups = make([]destGroup, 0, 2*t.m.c.Opts.Replication)
		}
		t.groups = append(t.groups, destGroup{})
		copy(t.groups[i+1:], t.groups[i:])
		t.groups[i] = destGroup{dst: dst}
	}
	return &t.groups[i]
}

// beginPhase opens the named commit-phase child span, closing whichever
// phase span was open (phases are strictly sequential, §4). No-ops for
// untraced transactions.
func (m *Machine) beginPhase(t *Tx, name string) {
	if !t.traceCtx.Valid() {
		return
	}
	now := m.c.Eng.Now()
	if t.phaseCtx.Valid() {
		m.trb.End(t.phaseCtx, now, 0)
	}
	t.phaseCtx = m.trb.Begin("tx", name, now, t.traceCtx.Trace, t.traceCtx.Span, 0)
}

// endPhase closes the open commit-phase span, if any.
func (m *Machine) endPhase(t *Tx) {
	if t.phaseCtx.Valid() {
		m.trb.End(t.phaseCtx, m.c.Eng.Now(), 0)
		t.phaseCtx = trace.Ctx{}
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

	// Group the write set by primary and backup machines: size the groups
	// first, so that all their write lists are carved out of one slab.
	total := 0
	for i := t.firstW; i >= 0; i = t.set[i].wnext {
		addr := t.set[i].addr
		rm := m.mapping(addr.Region)
		if rm == nil || len(rm.Replicas) < 1 {
			m.failTx(t, ErrUnavailable)
			return
		}
		if !slices.Contains(t.writeRegions, addr.Region) {
			t.writeRegions = append(t.writeRegions, addr.Region)
		}
		t.groupFor(int(rm.Replicas[0])).nPrim++
		for _, b := range rm.Replicas[1:] {
			t.groupFor(int(b)).nBackup++
		}
		total += len(rm.Replicas)
	}
	if cap(t.writeSlab) < total {
		t.writeSlab = make([]proto.ObjectWrite, total)
	}
	t.writeSlab = t.writeSlab[:total]
	slab := t.writeSlab
	for i := range t.groups {
		g := &t.groups[i]
		g.primWrites, slab = slab[:0:g.nPrim], slab[g.nPrim:]
		g.backupWrites, slab = slab[:0:g.nBackup], slab[g.nBackup:]
		if g.nPrim > 0 {
			t.primaries++
		}
		if g.nBackup > 0 {
			t.backups++
		}
	}
	for i := t.firstW; i >= 0; i = t.set[i].wnext {
		e := &t.set[i]
		ow := proto.ObjectWrite{Addr: e.addr, Version: e.version, Allocated: e.allocated, Class: e.class, Value: e.value}
		replicas := m.mapping(e.addr.Region).Replicas
		g := t.group(int(replicas[0]))
		g.primWrites = append(g.primWrites, ow)
		for _, b := range replicas[1:] {
			g = t.group(int(b))
			g.backupWrites = append(g.backupWrites, ow)
		}
	}

	// Assign the transaction id ⟨c, m, t, l⟩ at the start of commit (§5.3).
	m.nextLocal[t.thread]++
	t.id = proto.TxID{
		Config:  m.config.ID,
		Machine: uint16(m.ID),
		Thread:  uint16(t.thread),
		Local:   m.nextLocal[t.thread],
	}

	// Reserve log space for every record this commit and its truncation
	// will need (§4): LOCK + COMMIT-PRIMARY/ABORT at primaries,
	// COMMIT-BACKUP at backups, and a truncate record everywhere.
	if !m.reserveCommit(t) {
		m.truncThreads[t.thread].add(t.id.Local)
		m.failTx(t, ErrNoSpace)
		return
	}

	m.inflight[t.id] = t
	m.c.Counters.Inc("tx_commit_started", 1)
	t.phase = phaseLock
	t.lastProgress = m.c.Eng.Now()
	t.traceCtx = t.ctx
	m.beginPhase(t, "LOCK")
	m.sendLocks(t)
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

// failTx releases the slots t allocated and reports err, on the coordinator
// thread, for a commit that failed before any record was written:
// ErrNoSpace (a participant's log had no room for the reservations) or
// ErrUnavailable (a written region has no mapping).
func (m *Machine) failTx(t *Tx, err error) {
	t.releaseAllocs()
	t.failErr = err
	m.c.Eng.After(cpuLocal, t.failFn)
}

// fail is failTx's report. Neither error is a conflict, so each is counted
// under its own name.
func (t *Tx) fail() {
	m := t.m
	if !m.alive {
		return
	}
	m.Aborted++
	if t.failErr == ErrUnavailable {
		*m.c.cUnavailable++
	} else {
		*m.c.cNoLogSpace++
	}
	t.report(t.failErr)
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
func (m *Machine) reserveCommit(t *Tx) bool {
	rec := proto.Record{Tx: t.id, Regions: t.writeRegions}
	smallRec := recordSize(&rec)
	for i := range t.groups {
		g := &t.groups[i]
		if !m.reserveGroup(g, &rec, smallRec) {
			for j := 0; j <= i; j++ {
				if p := m.peer(t.groups[j].dst); p != nil {
					m.releaseRes(p, &t.groups[j].res)
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
func (m *Machine) releaseCoordReservations(t *Tx) {
	for i := range t.groups {
		g := &t.groups[i]
		if p := m.peer(g.dst); p != nil && m.isMember(g.dst) {
			m.releaseRes(p, &g.res)
		}
		g.res = resSet{}
	}
}

// takeReservation consumes the reservation matching a record kind.
func (t *Tx) takeReservation(dst int, typ proto.RecordType) int {
	g := t.group(dst)
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
// read-write commit's, scheduled on the coordinator thread (one verb
// per record, or a memory write when the log is this machine's own), or an
// explicit TRUNCATE (t nil, written at once by flushTruncations). It is
// encoded straight into a ring frame with piggybacked truncation ids and
// acked by the NIC. It is pooled like msgTask, runFn/ackFn bound once. rec
// never leaves the coordinator — it is encoded and dropped, and participants
// decode the ring bytes — which is what makes reusing it, and ids (the
// backing store of rec.TruncIDs), safe.
type recWrite struct {
	m   *Machine
	t   *Tx
	dst int
	rec proto.Record
	ids []uint64

	runFn func()
	ackFn func(error)
}

// newRecWrite returns a pooled recWrite of a record of type typ from
// transaction tx, for dst's log.
func (m *Machine) newRecWrite(t *Tx, dst int, typ proto.RecordType, tx proto.TxID) *recWrite {
	op := m.recWrites.Get()
	op.t, op.dst = t, dst
	op.rec = proto.Record{Type: typ, Tx: tx, TruncIDs: op.ids[:0]}
	return op
}

// writeTxRecord sends t's record of the given type to g's machine: LOCK
// and COMMIT-BACKUP carry the group's writes, the others only the header.
func (m *Machine) writeTxRecord(t *Tx, typ proto.RecordType, g *destGroup) {
	op := m.newRecWrite(t, g.dst, typ, t.id)
	op.rec.Regions = t.writeRegions
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
	m.OnThread(t.thread, cost, op.runFn)
}

func (op *recWrite) run() {
	p := op.m.peer(op.dst)
	if !op.write(p, op.t.takeReservation(p.id, op.rec.Type)) {
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
// piggybacked truncations, recycle, report a write that failed for good,
// then advance the commit protocol.
func (op *recWrite) ack(err error) {
	m, t, dst, typ := op.m, op.t, op.dst, op.rec.Type
	if err == nil {
		m.truncDelivered(m.peer(dst), len(op.rec.TruncIDs), typ == proto.RecTruncate)
	}
	op.t, op.rec = nil, proto.Record{}
	m.recWrites.Put(op)
	if err != nil && err != ErrNoSpace && m.alive {
		// Whatever the record: a ring on which only TRUNCATEs failed holds
		// its truncation queue, and every Tx in it, until dst leaves.
		m.reportWriteFailure(dst)
	}
	switch typ {
	case proto.RecAbort:
		m.onAbortAck(t)
	case proto.RecCommitBackup:
		m.onBackupAck(t, dst, err)
	case proto.RecCommitPrimary:
		m.onPrimaryAck(t, dst, err)
	}
}

// sendLocks writes a LOCK record to the log at every primary of a written
// object (§4 step 1).
func (m *Machine) sendLocks(t *Tx) {
	t.lockOutstanding = t.primaries
	for i := range t.groups {
		if g := &t.groups[i]; len(g.primWrites) > 0 {
			m.writeTxRecord(t, proto.RecLock, g)
		}
	}
}

// onLockReply handles primary src's lock result: Table 2's LOCK-REPLY from a
// remote primary, the handed-off verdict (lockVerdict) from this machine.
// Each primary's first verdict counts; the fabric may deliver a LOCK-REPLY
// twice.
func (m *Machine) onLockReply(src int, tx proto.TxID, ok bool) {
	t := m.inflight[tx]
	if t == nil || t.recovering || t.phase != phaseLock {
		return
	}
	g := t.group(src)
	if g == nil || len(g.primWrites) == 0 || g.lockAnswered {
		return
	}
	g.lockAnswered = true
	if !ok {
		t.lockFailed = true
	}
	t.lastProgress = m.c.Eng.Now()
	t.lockOutstanding--
	if t.lockOutstanding > 0 {
		return
	}
	if t.lockFailed {
		m.abortTx(t, ErrConflict)
		return
	}
	t.phase = phaseValidate
	m.validate(t)
}

// abortTx writes ABORT records to all lock-phase primaries, releases
// unused reservations, and reports the conflict (§4 step 1).
func (m *Machine) abortTx(t *Tx, err error) {
	t.phase = phaseDone
	m.endPhase(t)
	delete(m.inflight, t.id)
	t.releaseAllocs()
	t.abortOutstanding = t.primaries
	for i := range t.groups {
		g := &t.groups[i]
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
		m.writeTxRecord(t, proto.RecAbort, g)
	}
	m.c.Counters.Inc("tx_aborted", 1)
	m.Aborted++
	t.report(err)
}

// onAbortAck queues the aborted transaction's truncation once every
// primary's ABORT record is acked (delivered or given up on).
func (m *Machine) onAbortAck(t *Tx) {
	t.abortOutstanding--
	if t.abortOutstanding == 0 && m.alive {
		m.queueTruncation(t, true)
	}
}

// validate is a read-write commit's step 2 (§4): every read-but-not-written
// object goes through validateSet, and the last success moves on to
// COMMIT-BACKUP.
func (m *Machine) validate(t *Tx) {
	m.beginPhase(t, "VALIDATE")
	var vs []valRead
	if !m.c.Opts.SkipReadValidation {
		// (Options.SkipReadValidation is a TEST-ONLY consistency bug: commit
		// without checking that read versions still stand.)
		vs = t.validationSet(0, 0)
	}
	if len(vs) == 0 {
		t.phase = phaseCommitBackup
		m.commitBackups(t)
		return
	}
	t.validateSet(vs, t.phaseCtx)
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
				case t.nWrites == 0 && !t.valFailed:
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
// that left the validate phase (the stall sweep aborted it, or its
// truncation has finished since) or is recovering. After the last success a
// read-write commit moves on to COMMIT-BACKUP and a read-only commit is
// reported.
func (t *Tx) validated(ok bool) {
	rw := t.nWrites > 0
	if t.valFailed || rw && (t.phase != phaseValidate || t.recovering) {
		return
	}
	if !ok {
		t.valFail(ErrConflict)
		return
	}
	if rw {
		t.lastProgress = t.m.c.Eng.Now()
	}
	t.valLeft--
	if t.valLeft > 0 {
		return
	}
	if !rw {
		// The report is lease-fenced like the read-write path, so a
		// coordinator that validated against replicas the configuration has
		// moved past cannot vouch for a stale snapshot.
		t.m.reportCommitted(t)
		return
	}
	t.phase = phaseCommitBackup
	t.m.commitBackups(t)
}

// valFail ends t's validation with err: a read-write commit aborts, which
// releases its locks; a read-only commit is reported aborted.
func (t *Tx) valFail(err error) {
	t.valFailed = true
	if t.nWrites > 0 {
		t.m.abortTx(t, err)
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
	op := m.vals.Get()
	op.t, op.i = t, i
	return op
}

func (op *valOp) recycle() (t *Tx, e *txEntry) {
	t, e = op.t, &op.t.set[op.i]
	op.t = nil
	op.m.vals.Put(op)
	return
}

// pass is the verdict of a read-only commit with nothing left to validate.
func (op *valOp) pass() {
	m, t := op.m, op.t
	op.t = nil
	m.vals.Put(op)
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
func (m *Machine) commitBackups(t *Tx) {
	m.beginPhase(t, "COMMIT-BACKUP")
	t.cbOutstanding = t.backups
	if t.backups == 0 {
		t.phase = phaseCommitPrimary
		m.commitPrimaries(t)
		return
	}
	for i := range t.groups {
		if g := &t.groups[i]; len(g.backupWrites) > 0 {
			m.writeTxRecord(t, proto.RecCommitBackup, g)
		}
	}
}

func (m *Machine) onBackupAck(t *Tx, bm int, err error) {
	if !m.alive || t.recovering || t.phase != phaseCommitBackup {
		return
	}
	if err != nil {
		// The write failed for good (ack reported it): the transaction must
		// wait for recovery, since the backup may hold its COMMIT-BACKUP
		// record.
		return
	}
	// Precise membership: ignore acks from non-members (§5.2).
	if !m.isMember(bm) {
		return
	}
	t.cbOutstanding--
	if t.cbOutstanding == 0 {
		t.phase = phaseCommitPrimary
		m.commitPrimaries(t)
	}
}

// commitPrimaries writes COMMIT-PRIMARY records; completion is reported to
// the application on the first hardware ack (§4 step 4). Truncation is
// queued once all primaries acked (§4 step 5).
func (m *Machine) commitPrimaries(t *Tx) {
	m.beginPhase(t, "COMMIT-PRIMARY")
	t.cpOutstanding = t.primaries
	for i := range t.groups {
		if g := &t.groups[i]; len(g.primWrites) > 0 {
			m.writeTxRecord(t, proto.RecCommitPrimary, g)
		}
	}
}

func (m *Machine) onPrimaryAck(t *Tx, pm int, err error) {
	if !m.alive || t.recovering {
		return
	}
	if err != nil {
		return // reported by ack
	}
	if !m.isMember(pm) {
		return
	}
	if !t.reported {
		t.reported = true
		m.reportCommitted(t)
	}
	t.cpOutstanding--
	if t.cpOutstanding == 0 {
		t.phase = phaseDone
		m.endPhase(t)
		delete(m.inflight, t.id)
		m.queueTruncation(t, false)
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
func (m *Machine) reportCommitted(t *Tx) {
	if !m.selfLeaseOK() {
		m.fencedReport(func() { m.committed(t) })
		return
	}
	m.committed(t)
}

func (m *Machine) committed(t *Tx) {
	m.Committed++
	m.c.Counters.Inc("tx_committed", 1)
	t.report(nil)
}
