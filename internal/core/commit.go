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

// coordTx is the coordinator-side state of one committing transaction.
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
	// primaries and backups count the groups with primWrites (the LOCK,
	// ABORT and COMMIT-PRIMARY fan-out) and with backupWrites (the
	// COMMIT-BACKUP fan-out).
	primaries, backups int

	lockOutstanding int
	lockFailed      bool

	valOutstanding int

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
	// truncLeft counts groups whose truncPending is set.
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
	// res holds the payload sizes reserved in dst's log, consumed as
	// records are written.
	res resSet
	// truncPending is set from queueing this transaction's truncation at
	// dst until its delivery there is acked (or dst leaves).
	truncPending bool
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

// truncDone notes that dst no longer awaits this transaction's truncation
// and reports whether no participant does.
func (ct *coordTx) truncDone(dst int) bool {
	if g := ct.group(dst); g != nil && g.truncPending {
		g.truncPending = false
		ct.truncLeft--
	}
	return ct.truncLeft == 0
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
// validation and have no commit phase.
func (t *Tx) Commit(cb func(err error)) {
	if t.finished {
		panic(errTxDone)
	}
	t.finished = true
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
		t.finished = false
		m.clientQueue = append(m.clientQueue, func() { t.Commit(cb) })
		return
	}

	if t.ctx.Valid() {
		// Close the root trace span on whatever path reports the outcome.
		inner := cb
		cb = func(err error) { t.endTxSpan(err); inner(err) }
	}
	if t.hrec != nil {
		// Record the reported outcome and its simulated time. Requeue
		// paths below may wrap cb again on re-entry; Finish is idempotent,
		// so only the first (outermost) report lands. A coordinator that
		// dies before reporting leaves the event indeterminate — exactly
		// what the checker's commit inference is for.
		inner := cb
		cb = func(err error) {
			o := history.Committed
			if err != nil {
				o = history.Aborted
			}
			t.histFinish(o)
			inner(err)
		}
	}

	if len(t.writes) == 0 {
		t.validateReadOnly(cb)
		return
	}

	// Wait for any blocked (recovering) write region before starting.
	for _, addr := range t.order {
		if m.regionBlocked(addr.Region) {
			region := addr.Region
			t.finished = false
			m.blockUntilActive(region, func() { t.Commit(cb) })
			return
		}
	}

	ct := &coordTx{tx: t, cb: cb}

	// Group the write set by primary and backup machines: size the groups
	// first, so that all their write lists are carved out of one slab.
	total := 0
	for _, addr := range t.order {
		rm := m.mapping(addr.Region)
		if rm == nil || len(rm.Replicas) < 1 {
			t.releaseAllocs()
			m.failTx(cb, ErrUnavailable)
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
	slab := make([]proto.ObjectWrite, total)
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
	for _, addr := range t.order {
		w := t.writes[addr]
		ow := proto.ObjectWrite{Addr: addr, Version: w.version, Allocated: w.allocated, Value: w.value}
		replicas := m.mapping(addr.Region).Replicas
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
		m.threadTrunc(t.thread).retire(ct.id.Local)
		t.releaseAllocs()
		m.failTx(cb, ErrNoSpace)
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

// failTx reports a commit failure on the coordinator thread.
func (m *Machine) failTx(cb func(error), err error) {
	m.c.Eng.After(m.c.Opts.CPULocal, func() {
		if m.alive {
			m.Aborted++
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

// releaseRes returns every unconsumed reservation in r to dst's log.
func (m *Machine) releaseRes(dst int, r *resSet) {
	w := m.logW[dst]
	for _, s := range [...]int{r.lock, r.cp, r.cb} {
		if s > 0 {
			w.Release(s)
		}
	}
	for i := 0; i < r.pooled; i++ {
		m.truncPoolRelease(dst)
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
				m.releaseRes(ct.groups[j].dst, &ct.groups[j].res)
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
	w := m.logW[g.dst]
	if w == nil {
		return false
	}
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
	if !m.truncPoolReserve(g.dst) {
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
		if m.logW[g.dst] != nil && m.isMember(g.dst) {
			m.releaseRes(g.dst, &g.res)
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

// recWrite is one of a committing transaction's records on its way into a
// participant's log: scheduled on the coordinator thread (one verb per
// record), encoded straight into a ring frame with piggybacked truncation
// ids, acked by the NIC. It is pooled like msgTask, runFn/ackFn bound
// once. rec never leaves the coordinator — it is encoded and dropped, and
// participants decode their own copy out of the ring — which is what makes
// reusing it, and ids (the backing store of rec.TruncIDs), safe.
type recWrite struct {
	m   *Machine
	ct  *coordTx
	dst int
	rec proto.Record
	ids []uint64

	runFn func()
	ackFn func(error)
}

// writeTxRecord sends ct's record of the given type to g's machine: LOCK
// and COMMIT-BACKUP carry the group's writes, the others only the header.
func (m *Machine) writeTxRecord(ct *coordTx, typ proto.RecordType, g *destGroup) {
	var op *recWrite
	if k := len(m.recFree); k > 0 {
		op = m.recFree[k-1]
		m.recFree = m.recFree[:k-1]
	} else {
		op = &recWrite{m: m}
		op.runFn = op.run
		op.ackFn = op.ack
	}
	op.ct, op.dst = ct, g.dst
	op.rec = proto.Record{Type: typ, Tx: ct.id, Regions: ct.writeRegions, TruncIDs: op.ids[:0]}
	switch typ {
	case proto.RecLock:
		op.rec.Writes = g.primWrites
	case proto.RecCommitBackup:
		op.rec.Writes = g.backupWrites
	}
	m.OnThread(ct.tx.thread, m.c.Opts.CPUVerb, op.runFn)
}

func (op *recWrite) run() {
	m, dst, rec := op.m, op.dst, &op.rec
	m.attachPiggyback(dst, rec)
	op.ids = rec.TruncIDs[:0] // keep the buffer attachPiggyback may have grown
	w := m.logW[dst]
	if buf, ok := w.Begin(proto.RecordSize(rec), op.ct.takeReservation(dst, rec.Type)); ok {
		proto.AppendRecord(buf[:0], rec)
		w.Commit(op.ackFn)
	} else {
		// Only possible when the reservation is gone (unreserved write).
		m.requeuePiggyback(dst, rec)
		op.ack(ErrNoSpace)
	}
	// Phase-end doorbell: the record is on the wire; any transport traffic
	// queued toward dst departs with it instead of trailing the phase by a
	// flush interval.
	m.tp.flushHint(dst)
}

// ack is the hardware ack of the record's ring write: settle the
// piggybacked truncations, recycle, then advance the commit protocol.
func (op *recWrite) ack(err error) {
	m, ct, dst, typ := op.m, op.ct, op.dst, op.rec.Type
	if err == nil {
		m.truncDelivered(dst, op.rec.TruncIDs, 0)
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

// onLockReply handles a primary's lock result (Table 2 LOCK-REPLY).
func (m *Machine) onLockReply(reply *proto.LockReply) {
	ct := m.inflight[reply.Tx]
	if ct == nil || ct.recovering || ct.phase != phaseLock {
		return
	}
	if !reply.OK {
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
		if g.res.cb > 0 {
			m.logW[g.dst].Release(g.res.cb)
			g.res.cb = 0
		}
		if len(g.primWrites) == 0 {
			m.truncPoolRelease(g.dst)
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

// validate performs read validation (§4 step 2): one-sided reads of the
// version words of all read-but-not-written objects, switching to RPC for
// primaries holding more than tr of them.
func (m *Machine) validate(ct *coordTx) {
	m.beginPhase(ct, "VALIDATE")
	if m.c.Opts.SkipReadValidation {
		// TEST-ONLY consistency bug (Options.SkipReadValidation): commit
		// without checking that read versions still stand.
		ct.phase = phaseCommitBackup
		m.commitBackups(ct)
		return
	}
	t := ct.tx
	vs := t.validationSet()
	if len(vs) == 0 {
		ct.phase = phaseCommitBackup
		m.commitBackups(ct)
		return
	}
	if vs[0].pm == -1 { // unknown primaries sort first
		m.abortTx(ct, ErrUnavailable)
		return
	}
	// abortTx sets phase to done, so late replies become no-ops.
	fail := func() {
		if ct.phase == phaseValidate && !ct.recovering {
			m.abortTx(ct, ErrConflict)
		}
	}
	done := func() {
		ct.lastProgress = m.c.Eng.Now()
		ct.valOutstanding--
		if ct.valOutstanding == 0 && ct.phase == phaseValidate && !ct.recovering {
			ct.phase = phaseCommitBackup
			m.commitBackups(ct)
		}
	}
	for i, j := 0, 0; i < len(vs); i = j {
		j = primaryRun(vs, i)
		ct.valOutstanding += m.validationOps(vs[i].pm, j-i)
	}
	for i, j := 0, 0; i < len(vs); i = j {
		j = primaryRun(vs, i)
		pm, entries := vs[i].pm, vs[i:j]
		switch {
		case pm == m.ID:
			// Local validation: direct header loads.
			for _, e := range entries {
				r := e.r
				m.OnThread(t.thread, m.c.Opts.CPULocal, func() {
					if ct.phase != phaseValidate || ct.recovering {
						return
					}
					rep := m.replicas[r.addr.Region]
					if rep == nil || !validHeader(rep.mem, r) {
						fail()
						return
					}
					done()
				})
			}
		case len(entries) > m.c.Opts.ValidateRPCThreshold:
			// Validation over RPC (Table 2 VALIDATE). The phase span's
			// context rides along, so the primary's work and its reply are
			// parented on this validation.
			req := validateReqFor(entries)
			req.Tx = ct.id
			// Doorbell: this request is the validate phase's entire
			// fan-out to pm; it should depart with the phase.
			m.sendFromThreadCtxDoorbell(t.thread, pm, req, ct.phaseCtx)
		default:
			for _, e := range entries {
				r := e.r
				m.OnThread(t.thread, m.c.Opts.CPUVerb, func() {
					m.nic.Read(fabric.MachineID(pm), nvram.RegionID(r.addr.Region),
						int(r.addr.Off), regionmem.HeaderSize, func(raw []byte, err error) {
							if !m.alive || ct.phase != phaseValidate || ct.recovering {
								return
							}
							if err != nil || !validHeaderWord(regionmem.ReadHeader(raw, 0), r.version) {
								fail()
								return
							}
							done()
						})
				})
			}
		}
	}
}

// valRead is one read-set entry tagged with its primary (-1 = unknown).
type valRead struct {
	pm int
	r  *readEntry
}

// validationSet returns the read-but-not-written objects sorted by primary
// then address: each run of equal pm is that primary's share of the
// validation, and the whole walk is deterministic.
func (t *Tx) validationSet() []valRead {
	vs := make([]valRead, 0, len(t.reads))
	for addr, r := range t.reads {
		if _, written := t.writes[addr]; !written {
			vs = append(vs, valRead{pm: t.m.primaryOf(addr.Region), r: r})
		}
	}
	slices.SortFunc(vs, func(a, b valRead) int {
		if a.pm != b.pm {
			return a.pm - b.pm
		}
		return addrCmp(a.r.addr, b.r.addr)
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

// validationOps is how many completions validating n objects at primary pm
// takes: one RPC when a remote primary holds more than the threshold (§4
// step 2), else one header read each.
func (m *Machine) validationOps(pm, n int) int {
	if pm != m.ID && n > m.c.Opts.ValidateRPCThreshold {
		return 1
	}
	return n
}

func validateReqFor(entries []valRead) *proto.ValidateReq {
	req := &proto.ValidateReq{
		Addrs:    make([]proto.Addr, len(entries)),
		Versions: make([]uint64, len(entries)),
	}
	for i, e := range entries {
		req.Addrs[i], req.Versions[i] = e.r.addr, e.r.version
	}
	return req
}

func validHeader(mem []byte, r *readEntry) bool {
	return validHeaderWord(regionmem.ReadHeader(mem, int(r.addr.Off)), r.version)
}

func validHeaderWord(word, version uint64) bool {
	return !regionmem.Locked(word) && regionmem.Version(word) == version
}

// onValidateReply finishes an RPC validation.
func (m *Machine) onValidateReply(reply *proto.ValidateReply) {
	ct := m.inflight[reply.Tx]
	if ct == nil || ct.recovering || ct.phase != phaseValidate {
		return
	}
	if !reply.OK {
		m.abortTx(ct, ErrConflict)
		return
	}
	ct.lastProgress = m.c.Eng.Now()
	ct.valOutstanding--
	if ct.valOutstanding == 0 {
		ct.phase = phaseCommitBackup
		m.commitBackups(ct)
	}
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
		m.reportCommitted(ct)
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

// reportCommitted finalizes a successful commit at the application.
func (m *Machine) reportCommitted(ct *coordTx) {
	m.fencedReport(func() {
		m.Committed++
		m.c.Counters.Inc("tx_committed", 1)
		ct.cb(nil)
	})
}

// validateReadOnly is the read-only fast path: committed read-only
// transactions serialize at their last read, so only validation is needed.
// Primaries holding more than tr read objects are validated with a single
// RPC, like the read-write path (§4 step 2).
func (t *Tx) validateReadOnly(cb func(error)) {
	m := t.m
	if m.c.Opts.SkipReadValidation || len(t.reads) == 0 {
		m.c.Eng.After(m.c.Opts.CPULocal, func() {
			if m.alive {
				m.fencedReport(func() {
					m.Committed++
					m.c.Counters.Inc("tx_committed", 1)
					cb(nil)
				})
			}
		})
		return
	}
	vs := t.validationSet()
	outstanding := 0
	for i, j := 0, 0; i < len(vs); i = j {
		j = primaryRun(vs, i)
		outstanding += m.validationOps(vs[i].pm, j-i)
	}
	failed := false
	finish := func(ok bool) {
		if failed {
			return
		}
		if !ok {
			failed = true
			m.Aborted++
			m.c.Counters.Inc("tx_aborted", 1)
			cb(ErrConflict)
			return
		}
		outstanding--
		if outstanding == 0 {
			// Read-only commits serialize at their last read; the report is
			// lease-fenced like the read-write path, so a coordinator that
			// validated against replicas the configuration has moved past
			// cannot vouch for a stale snapshot.
			m.fencedReport(func() {
				m.Committed++
				m.c.Counters.Inc("tx_committed", 1)
				cb(nil)
			})
		}
	}
	for i, j := 0, 0; i < len(vs); i = j {
		j = primaryRun(vs, i)
		pm, entries := vs[i].pm, vs[i:j]
		switch {
		case pm == m.ID:
			for _, e := range entries {
				r := e.r
				m.OnThread(t.thread, m.c.Opts.CPULocal, func() {
					rep := m.replicas[r.addr.Region]
					finish(rep != nil && validHeader(rep.mem, r))
				})
			}
		case pm == -1 || !m.isMember(pm):
			m.OnThread(t.thread, m.c.Opts.CPULocal, func() { finish(false) })
		case len(entries) > m.c.Opts.ValidateRPCThreshold:
			// One RPC validates the whole per-primary read set.
			req := validateReqFor(entries)
			id := m.nextRPC
			m.nextRPC++
			m.rpcWaiters[id] = func(resp interface{}) {
				finish(resp.(*proto.ValidateReply).OK)
			}
			// Doorbell: a read-only commit waits on nothing else.
			m.sendFromThreadDoorbell(t.thread, pm, &rpcEnvelope{ID: id, From: m.ID, Body: req, Ctx: t.ctx})
		default:
			for _, e := range entries {
				r := e.r
				m.OnThread(t.thread, m.c.Opts.CPUVerb, func() {
					m.nic.Read(fabric.MachineID(pm), nvram.RegionID(r.addr.Region), int(r.addr.Off),
						regionmem.HeaderSize, func(raw []byte, err error) {
							if !m.alive || failed {
								return
							}
							finish(err == nil && validHeaderWord(regionmem.ReadHeader(raw, 0), r.version))
						})
				})
			}
		}
	}
}
