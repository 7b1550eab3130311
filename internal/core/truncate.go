package core

import (
	"fmt"
	"slices"

	"farm/internal/proto"
	"farm/internal/trace"
)

// This file implements the coordinator side of §4 step 5: lazy truncation.
// After all COMMIT-PRIMARY (or ABORT) records are acked, the transaction
// joins one queue per participant and its id is delivered by piggybacking
// on later records; an explicit TRUNCATE record is written only when no
// carrier appears within TruncateFlushInterval — in one of the
// truncate-record reservations pooled at commit time.
//
// The queue needs no other bookkeeping because a ring completes its frames
// in psn order (DESIGN.md §9): carriers take ids from the queue in order,
// so the first carrier acked holds the ids at the queue's head. A frame
// that fails for good fails every later one, and nothing then pops until
// the peer leaves or a power restore replaces the ring and sends
// everything again.

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

// truncQueue is the coordinator's truncation work toward one participant
// machine: the transactions whose truncation there is not acked yet, in the
// order their ids leave, and the pool of explicit-TRUNCATE reservations
// they hold, one each (§4). txs[:sent] ride carriers in flight, txs[sent:]
// wait for one; a carrier's ack pops its ids off the head.
type truncQueue struct {
	txs  []*Tx
	sent int
	// pool counts the queued transactions' slots and those of commits
	// toward the peer still under way. A TRUNCATE record in flight writes
	// in one of the slots it counts; the ack returns the rest.
	pool       int
	flushArmed bool
	flushFn    func() // the flush timer's callback, bound once (addPeer)
}

func packTruncID(thread uint16, local uint64) uint64 {
	return uint64(thread)<<48 | (local & (1<<48 - 1))
}

func unpackTruncID(v uint64) (thread uint16, local uint64) {
	return uint16(v >> 48), v & (1<<48 - 1)
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
func (m *Machine) endTruncSpan(t *Tx) {
	if t.truncCtx.Valid() {
		m.trb.End(t.truncCtx, m.c.Eng.Now(), 0)
		t.truncCtx = trace.Ctx{}
	}
}

// queueTruncation queues a finished transaction at each participant (after
// an abort: at the primaries only, the one place that saw records), where
// it keeps the pooled slot it reserved, and arms the flush timer.
func (m *Machine) queueTruncation(t *Tx, primariesOnly bool) {
	if t.traceCtx.Valid() {
		n := len(t.groups)
		if primariesOnly {
			n = t.primaries
		}
		t.truncCtx = m.trb.Begin("tx", "TRUNCATE", m.c.Eng.Now(),
			t.traceCtx.Trace, t.traceCtx.Span, int64(n))
	}
	for i := range t.groups {
		g := &t.groups[i]
		if (primariesOnly && len(g.primWrites) == 0) || !m.isMember(g.dst) {
			continue
		}
		t.truncLeft++
		p := m.peer(g.dst)
		p.truncQ.txs = append(p.truncQ.txs, t)
		m.armTruncFlush(p)
	}
	if t.truncLeft == 0 {
		m.truncFinished(t)
	}
}

// truncDone notes that one more participant no longer awaits t's
// truncation; after the last, the local id retires, advancing the thread's
// low bound.
func (m *Machine) truncDone(t *Tx) {
	if t.truncLeft--; t.truncLeft == 0 {
		m.truncFinished(t)
	}
}

// truncFinished retires a transaction no participant awaits truncation of:
// no truncation queue, record write or inflight entry holds it any more, so
// its commit is over, and the Tx goes back to its pool if nothing else holds
// it (release).
func (m *Machine) truncFinished(t *Tx) {
	m.truncThreads[t.id.Thread].add(t.id.Local)
	m.endTruncSpan(t)
	t.phase = phaseIdle
	t.release()
}

// attachPiggyback moves the next queued ids (up to the per-record budget)
// onto a record bound for p and stamps the thread's low bound.
func (m *Machine) attachPiggyback(p *peer, rec *proto.Record) {
	rec.TruncLow = m.truncThreads[rec.Tx.Thread].low
	q := &p.truncQ
	n := min(len(q.txs)-q.sent, maxPiggyIDs)
	for _, t := range q.txs[q.sent : q.sent+n] {
		rec.TruncIDs = append(rec.TruncIDs, packTruncID(t.id.Thread, t.id.Local))
	}
	q.sent += n
}

// requeuePiggyback gives the ids back when a record could not be appended:
// they were the last to leave.
func (m *Machine) requeuePiggyback(p *peer, rec *proto.Record) {
	p.truncQ.sent -= len(rec.TruncIDs)
	rec.TruncIDs = rec.TruncIDs[:0]
}

// truncDelivered runs when a record carrying n truncation ids to p is
// acked: it pops the n transactions at the head of the queue, each
// returning its pooled slot — a TRUNCATE record wrote in one of them — and
// perhaps finishing its truncation. An ack after the queue was retired (p
// left) pops nothing.
func (m *Machine) truncDelivered(p *peer, n int, truncRec bool) {
	q := &p.truncQ
	if n = min(n, q.sent); n == 0 {
		return
	}
	release := n
	if truncRec {
		release--
	}
	for range release {
		p.logW.Release(truncateRecordSize)
	}
	q.pool -= n
	for _, t := range q.txs[:n] {
		m.truncDone(t)
	}
	k := copy(q.txs, q.txs[n:])
	clear(q.txs[k:]) // hold no finished transaction
	q.txs, q.sent = q.txs[:k], q.sent-n
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

// flushTruncations writes explicit TRUNCATE records for every id not yet
// on a carrier, each through a pooled recWrite (recWrite.ack settles it)
// and in a pooled slot: every id it carries holds one.
func (m *Machine) flushTruncations(p *peer) {
	q := &p.truncQ
	for q.sent < len(q.txs) {
		op := m.newRecWrite(nil, p.id, proto.RecTruncate, proto.TxID{Config: m.config.ID, Machine: uint16(m.ID)})
		op.write(p, truncateRecordSize)
		m.c.Counters.Inc("explicit_truncate", 1)
	}
}

// dropTruncStateFor retires the truncation queue toward a machine that
// left the configuration (its log, and with it our reservations, is gone),
// in id order: truncFinished ends trace spans, and the queue is in the
// order commits finished.
func (m *Machine) dropTruncStateFor(p *peer) {
	q := &p.truncQ
	slices.SortFunc(q.txs, func(a, b *Tx) int { return txIDCmp(a.id, b.id) })
	for _, t := range q.txs {
		m.truncDone(t)
	}
	clear(q.txs)
	q.txs, q.sent, q.pool, q.flushArmed = q.txs[:0], 0, 0, false
}

// OpenTruncations describes the truncation work this machine still keeps
// toward each member: transactions awaiting truncation there, and pooled
// slots in its log. Once the load stops and the flush timers have run,
// both are zero.
func (m *Machine) OpenTruncations() []string {
	var out []string
	for _, p := range m.peers {
		if q := &p.truncQ; m.isMember(p.id) && (len(q.txs) > 0 || q.pool > 0) {
			out = append(out, fmt.Sprintf("%d transactions (%d sent) and %d pooled slots toward m%d",
				len(q.txs), q.sent, q.pool, p.id))
		}
	}
	return out
}
