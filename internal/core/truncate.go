package core

import (
	"farm/internal/proto"
	"farm/internal/sim"
	"farm/internal/trace"
)

// This file implements the coordinator side of §4 step 5: lazy truncation.
// After all COMMIT-PRIMARY (or ABORT) records are acked, the transaction's
// ids are queued per participant and delivered by piggybacking on later
// records; an explicit TRUNCATE record is written only when no carrier
// appears within TruncateFlushInterval or when logs fill — using the
// truncate-record reservations pooled at commit time.

// threadTruncState tracks, per coordinator thread, the low bound on local
// transaction ids that are fully truncated at every participant. The low
// bound is piggybacked on records (Table 1) so participants can compact
// their truncated-id sets (§5.3 step 6).
type threadTruncState struct {
	next    uint64 // all locals < next are fully truncated
	retired map[uint64]bool
}

func (m *Machine) threadTrunc(thread int) *threadTruncState {
	if m.truncThreads == nil {
		m.truncThreads = make([]*threadTruncState, m.c.Opts.Threads)
	}
	s := m.truncThreads[thread]
	if s == nil {
		s = &threadTruncState{next: 1, retired: make(map[uint64]bool)}
		m.truncThreads[thread] = s
	}
	return s
}

// retire marks a local id fully truncated and advances the low bound over
// the contiguous prefix.
func (s *threadTruncState) retire(local uint64) {
	if local < s.next {
		return
	}
	s.retired[local] = true
	for s.retired[s.next] {
		delete(s.retired, s.next)
		s.next++
	}
}

func (s *threadTruncState) low() uint64 { return s.next }

// truncQueueFor returns (creating) the truncation queue toward dst.
func (m *Machine) truncQueueFor(dst int) *truncQueue {
	q := m.truncQ[dst]
	if q == nil {
		q = &truncQueue{}
		q.flushFn = func() {
			q.flushArmed = false
			if m.alive && m.isMember(dst) {
				m.flushTruncations(dst)
			}
		}
		m.truncQ[dst] = q
	}
	return q
}

// truncPoolReserve reserves one pooled truncate-record slot at dst.
func (m *Machine) truncPoolReserve(dst int) bool {
	w := m.logW[dst]
	if w == nil || !w.Reserve(truncateRecordSize) {
		return false
	}
	m.truncQueueFor(dst).pool++
	return true
}

// truncPoolRelease returns one pooled slot.
func (m *Machine) truncPoolRelease(dst int) {
	q := m.truncQueueFor(dst)
	if q.pool <= 0 {
		return
	}
	q.pool--
	if w := m.logW[dst]; w != nil {
		w.Release(truncateRecordSize)
	}
}

// endTruncSpan closes a transaction's TRUNCATE span once every participant
// has had the truncation delivered (or left the configuration).
func (m *Machine) endTruncSpan(ct *coordTx) {
	if ct.truncCtx.Valid() {
		m.trb.End(ct.truncCtx, m.c.Eng.Now(), 0)
		ct.truncCtx = trace.Ctx{}
	}
}

// queueTruncation enqueues a finished transaction's id for truncation at
// each participant (after an abort: at the primaries only, the one place
// that saw records) and arms the flush timer.
func (m *Machine) queueTruncation(ct *coordTx, primariesOnly bool) {
	if ct.traceCtx.Valid() {
		n := len(ct.groups)
		if primariesOnly {
			n = ct.primaries
		}
		ct.truncCtx = m.trb.Begin("tx", "TRUNCATE", m.c.Eng.Now(),
			ct.traceCtx.Trace, ct.traceCtx.Span, int64(n))
	}
	packed := packTruncID(ct.id.Thread, ct.id.Local)
	for i := range ct.groups {
		g := &ct.groups[i]
		if (primariesOnly && len(g.primWrites) == 0) || !m.isMember(g.dst) {
			continue
		}
		g.truncPending = true
		ct.truncLeft++
		q := m.truncQueueFor(g.dst)
		q.ids = append(q.ids, packed)
		if m.truncPending == nil {
			m.truncPending = make(map[int]map[uint64]*coordTx)
		}
		if m.truncPending[g.dst] == nil {
			m.truncPending[g.dst] = make(map[uint64]*coordTx)
		}
		m.truncPending[g.dst][packed] = ct
		m.armTruncFlush(g.dst)
	}
	if ct.truncLeft == 0 {
		m.truncFinished(ct)
	}
}

// truncFinished runs once every participant has had ct's truncation
// delivered (or left the configuration): the local id retires, advancing
// the thread's low bound.
func (m *Machine) truncFinished(ct *coordTx) {
	m.threadTrunc(int(ct.id.Thread)).retire(ct.id.Local)
	m.endTruncSpan(ct)
}

// attachPiggyback moves queued truncation ids (up to the per-record
// budget) onto an outgoing record and stamps the thread's low bound.
func (m *Machine) attachPiggyback(dst int, rec *proto.Record) {
	rec.TruncLow = m.threadTrunc(int(rec.Tx.Thread)).low()
	q := m.truncQ[dst]
	if q == nil || len(q.ids) == 0 {
		return
	}
	n := len(q.ids)
	if n > maxPiggyIDs {
		n = maxPiggyIDs
	}
	rec.TruncIDs = append(rec.TruncIDs, q.ids[:n]...)
	// Slide the rest down rather than re-slicing forward, so the queue
	// reuses its backing array instead of creeping into a reallocation.
	q.ids = q.ids[:copy(q.ids, q.ids[n:])]
}

// requeuePiggyback puts ids back when a record could not be appended.
func (m *Machine) requeuePiggyback(dst int, rec *proto.Record) {
	if len(rec.TruncIDs) == 0 {
		return
	}
	q := m.truncQueueFor(dst)
	q.ids = append(append([]uint64(nil), rec.TruncIDs...), q.ids...)
	rec.TruncIDs = nil
}

// truncDelivered runs when a record carrying truncation ids is acked:
// every delivered id frees one pooled reservation (minus any slot the
// carrier record itself consumed) and may complete a transaction's
// truncation, advancing the thread low bound.
func (m *Machine) truncDelivered(dst int, ids []uint64, slotsConsumed int) {
	if len(ids) == 0 {
		return
	}
	release := len(ids) - slotsConsumed
	for i := 0; i < release; i++ {
		m.truncPoolRelease(dst)
	}
	pend := m.truncPending[dst]
	for _, id := range ids {
		ct := pend[id]
		if ct == nil {
			continue
		}
		delete(pend, id)
		if ct.truncDone(dst) {
			m.truncFinished(ct)
		}
	}
}

// armTruncFlush schedules an explicit TRUNCATE record toward dst in case
// no carrier record shows up (rare in steady state, needed for liveness).
func (m *Machine) armTruncFlush(dst int) {
	q := m.truncQueueFor(dst)
	if q.flushArmed {
		return
	}
	q.flushArmed = true
	m.c.Eng.After(m.c.Opts.TruncateFlushInterval, q.flushFn)
}

// flushTruncations writes explicit TRUNCATE records for all queued ids.
func (m *Machine) flushTruncations(dst int) {
	q := m.truncQueueFor(dst)
	for len(q.ids) > 0 {
		rec := &proto.Record{ // never escapes: encoded below, then dropped
			Type: proto.RecTruncate,
			Tx:   proto.TxID{Config: m.config.ID, Machine: uint16(m.ID)},
		}
		m.attachPiggyback(dst, rec)
		if len(rec.TruncIDs) == 0 {
			return
		}
		// Consume one pooled reservation for the record itself.
		reserved := -1
		if q.pool > 0 {
			q.pool--
			reserved = truncateRecordSize
		}
		buf, ok := m.logW[dst].Begin(proto.RecordSize(rec), reserved)
		if !ok {
			m.requeuePiggyback(dst, rec)
			m.armTruncFlush(dst)
			return
		}
		proto.AppendRecord(buf[:0], rec)
		delivered := rec.TruncIDs
		m.logW[dst].Commit(func(err error) {
			if err == nil && m.alive {
				m.truncDelivered(dst, delivered, 1)
			}
		})
		m.c.Counters.Inc("explicit_truncate", 1)
	}
}

// startTruncSweep arms the liveness sweep for truncation delivery: a
// carrier record whose hardware ack was lost (partition, receiver eviction
// window) leaves its transaction ids pending; the sweep re-queues them so
// backups converge and the pooled reservations are eventually released.
// Redelivery is idempotent at the receiver (§4 step 5's laziness cuts both
// ways: delivery may happen more than once).
func (m *Machine) startTruncSweep() {
	if m.truncSweepOn {
		return
	}
	m.truncSweepOn = true
	m.armTruncSweep()
}

func (m *Machine) armTruncSweep() {
	m.c.Eng.After(20*sim.Millisecond, func() {
		if !m.alive {
			// Dies with the machine; RestorePower re-arms via
			// startTruncSweep, whose guard prevents duplicate sweeps.
			m.truncSweepOn = false
			return
		}
		for _, dst := range intKeys(m.truncPending) {
			pend := m.truncPending[dst]
			if len(pend) == 0 || !m.isMember(dst) {
				continue
			}
			q := m.truncQueueFor(dst)
			queued := make(map[uint64]bool, len(q.ids))
			for _, id := range q.ids {
				queued[id] = true
			}
			requeued := false
			for _, id := range u64Keys(pend) {
				if !queued[id] {
					q.ids = append(q.ids, id)
					requeued = true
				}
			}
			if requeued {
				m.armTruncFlush(dst)
			}
		}
		m.armTruncSweep()
	})
}

// dropTruncStateFor discards truncation bookkeeping toward a machine that
// left the configuration (its log, and with it our reservations, is gone).
func (m *Machine) dropTruncStateFor(dst int) {
	for id, ct := range m.truncPending[dst] {
		delete(m.truncPending[dst], id)
		if ct.truncDone(dst) {
			m.truncFinished(ct)
		}
	}
	delete(m.truncQ, dst)
}
