package core

import (
	"cmp"

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

// idWindow is a set of transaction-local ids: every id below low, plus ids.
// Adding the id at the bound advances it over the contiguous prefix, so a
// set fed ids roughly in order stays a bound and a few stragglers; an id far
// above low — they come off the wire — costs one map entry like any other.
// peer.trunc and Machine.truncThreads hold them. A nil window, standing for
// a coordinator the peer table does not hold, is empty and stays so.
type idWindow struct {
	low uint64
	ids map[uint64]bool // made with the window (truncWindow, newMachine)
}

func (w *idWindow) has(id uint64) bool {
	return w != nil && (id < w.low || w.ids[id])
}

func (w *idWindow) add(id uint64) {
	if w == nil || id < w.low {
		return
	}
	if id > w.low {
		w.ids[id] = true
		return
	}
	w.low++
	w.advance()
}

// setLow raises the bound to low, if it is below it.
func (w *idWindow) setLow(low uint64) {
	if w == nil || low <= w.low {
		return
	}
	for id := range w.ids {
		if id < low {
			delete(w.ids, id)
		}
	}
	w.low = low
	w.advance()
}

func (w *idWindow) advance() {
	for len(w.ids) > 0 && w.ids[w.low] {
		delete(w.ids, w.low)
		w.low++
	}
}

// truncPoolReserve reserves one pooled truncate-record slot in p's log.
func (m *Machine) truncPoolReserve(p *peer) bool {
	if !p.logW.Reserve(truncateRecordSize) {
		return false
	}
	p.truncQ.pool++
	return true
}

// truncPoolRelease returns one pooled slot.
func (m *Machine) truncPoolRelease(p *peer) {
	if p.truncQ.pool <= 0 {
		return
	}
	p.truncQ.pool--
	p.logW.Release(truncateRecordSize)
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
		p := m.peer(g.dst)
		p.truncQ.ids = append(p.truncQ.ids, packed)
		if p.truncPending == nil {
			p.truncPending = make(map[uint64]*coordTx)
		}
		p.truncPending[packed] = ct
		m.armTruncFlush(p)
	}
	if ct.truncLeft == 0 {
		m.truncFinished(ct)
	}
}

// truncFinished runs once every participant has had ct's truncation
// delivered (or left the configuration): the local id retires, advancing
// the thread's low bound.
func (m *Machine) truncFinished(ct *coordTx) {
	m.truncThreads[ct.id.Thread].add(ct.id.Local)
	m.endTruncSpan(ct)
}

// attachPiggyback moves queued truncation ids (up to the per-record
// budget) onto a record bound for p and stamps the thread's low bound.
func (m *Machine) attachPiggyback(p *peer, rec *proto.Record) {
	rec.TruncLow = m.truncThreads[rec.Tx.Thread].low
	q := &p.truncQ
	if len(q.ids) == 0 {
		return
	}
	n := min(len(q.ids), maxPiggyIDs)
	rec.TruncIDs = append(rec.TruncIDs, q.ids[:n]...)
	// Slide the rest down rather than re-slicing forward, so the queue
	// reuses its backing array instead of creeping into a reallocation.
	q.ids = q.ids[:copy(q.ids, q.ids[n:])]
}

// requeuePiggyback puts ids back when a record could not be appended.
func (m *Machine) requeuePiggyback(p *peer, rec *proto.Record) {
	if len(rec.TruncIDs) == 0 {
		return
	}
	p.truncQ.ids = append(append([]uint64(nil), rec.TruncIDs...), p.truncQ.ids...)
	rec.TruncIDs = nil
}

// truncDelivered runs when a record carrying truncation ids is acked:
// every delivered id frees one pooled reservation (minus any slot the
// carrier record itself consumed) and may complete a transaction's
// truncation, advancing the thread low bound.
func (m *Machine) truncDelivered(p *peer, ids []uint64, slotsConsumed int) {
	if len(ids) == 0 {
		return
	}
	release := len(ids) - slotsConsumed
	for i := 0; i < release; i++ {
		m.truncPoolRelease(p)
	}
	for _, id := range ids {
		ct := p.truncPending[id]
		if ct == nil {
			continue
		}
		delete(p.truncPending, id)
		if ct.truncDone(p.id) {
			m.truncFinished(ct)
		}
	}
}

// armTruncFlush schedules an explicit TRUNCATE record toward p in case no
// carrier record shows up (rare in steady state, needed for liveness).
func (m *Machine) armTruncFlush(p *peer) {
	q := &p.truncQ
	if q.flushArmed {
		return
	}
	q.flushArmed = true
	m.c.Eng.After(m.c.Opts.TruncateFlushInterval, q.flushFn)
}

// flushTruncations writes explicit TRUNCATE records for all queued ids,
// each through a pooled recWrite (recWrite.ack settles it).
func (m *Machine) flushTruncations(p *peer) {
	q := &p.truncQ
	for len(q.ids) > 0 {
		op := m.newRecWrite(nil, p.id, proto.RecTruncate, proto.TxID{Config: m.config.ID, Machine: uint16(m.ID)})
		// Consume one pooled reservation for the record itself.
		reserved := -1
		if q.pool > 0 {
			q.pool--
			reserved = truncateRecordSize
		}
		if !op.write(p, reserved) {
			op.ack(ErrNoSpace)
			m.armTruncFlush(p)
			return
		}
		m.c.Counters.Inc("explicit_truncate", 1)
	}
}

// requeuePending appends to p's queue, in id order, every pending truncation
// that is not on it, and reports whether there was one.
func requeuePending(p *peer) bool {
	if len(p.truncPending) == 0 {
		return false
	}
	q := &p.truncQ
	queued := make(map[uint64]bool, len(q.ids))
	for _, id := range q.ids {
		queued[id] = true
	}
	n := len(q.ids)
	for _, id := range sortedKeys(p.truncPending, cmp.Compare[uint64]) {
		if !queued[id] {
			q.ids = append(q.ids, id)
		}
	}
	return len(q.ids) > n
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
		for _, p := range m.peers {
			if m.isMember(p.id) && requeuePending(p) {
				m.armTruncFlush(p)
			}
		}
		m.armTruncSweep()
	})
}

// dropTruncStateFor discards truncation bookkeeping toward a machine that
// left the configuration (its log, and with it our reservations, is gone).
// Pending truncations retire in id order: truncFinished ends trace spans.
func (m *Machine) dropTruncStateFor(p *peer) {
	for _, id := range sortedKeys(p.truncPending, cmp.Compare[uint64]) {
		ct := p.truncPending[id]
		delete(p.truncPending, id)
		if ct.truncDone(p.id) {
			m.truncFinished(ct)
		}
	}
	p.truncQ.ids, p.truncQ.pool, p.truncQ.flushArmed = nil, 0, false
}
