package core

import "farm/internal/sim"

// Coordinator stall watchdog. FaRM's normal path assumes reliable sends:
// LOCK-REPLY from a remote primary and VALIDATE-REPLY are messages, and a
// dropped reply (RC retry exhaustion, one-way cut) leaves the coordinator
// waiting forever while the primaries hold the transaction's locks — every
// later transaction touching those objects aborts on conflict. No protocol
// message ever comes to break the tie, because nothing failed in a way
// leases notice.
//
// The watchdog sweeps in-flight transactions and aborts those stuck in the
// lock or validate phase past txStallTimeout. Aborting there is
// safe: the ABORT record is ordered after the LOCK record in each primary's
// ring, so it releases exactly the locks this transaction took, and no
// backup has seen anything. From COMMIT-BACKUP on the watchdog must NOT
// decide unilaterally — a backup may hold a COMMIT-BACKUP record, making
// the transaction's outcome recovery's to settle (§5.3) — so those phases
// rely on ring-writer retransmission plus the reportWriteFailure backstop.

// txStallTimeout is how long a transaction may go without progress before
// its coordinator aborts it (lock and validate phases) or a participant asks
// for the recovery decision again (sweepStuckRecovering).
const txStallTimeout = 30 * sim.Millisecond

func (m *Machine) startTxStallSweep() {
	if m.stallSweepOn {
		return
	}
	m.stallSweepOn = true
	m.armTxStallSweep()
}

func (m *Machine) armTxStallSweep() {
	m.c.Eng.After(txStallTimeout/2, func() {
		if !m.alive {
			m.stallSweepOn = false
			return
		}
		now := m.c.Eng.Now()
		// Sorted iteration: the sweep emits events (abort records) and maps
		// iterate in random order.
		for _, id := range sortedKeys(m.inflight, txIDCmp) {
			ct := m.inflight[id]
			if ct == nil || ct.recovering {
				continue
			}
			if ct.phase != phaseLock && ct.phase != phaseValidate {
				continue
			}
			if now-ct.lastProgress < txStallTimeout {
				continue
			}
			m.c.Counters.Inc("tx_stall_aborted", 1)
			m.abortTx(ct, ErrAborted)
		}
		m.sweepRPCWaits(now)
		// Participant side: recovering transactions whose COMMIT/ABORT-
		// RECOVERY or TRUNCATE-RECOVERY was lost re-query their recovery
		// coordinator (recovery.go).
		m.sweepStuckRecovering(now)
		m.armTxStallSweep()
	})
}

// sweepRPCWaits fails the watched RPCs that have gone unanswered for
// txStallTimeout (a reply lost with its primary).
func (m *Machine) sweepRPCWaits(now sim.Time) {
	m.failRPCWaits(func(w rpcWait) bool { return now-w.sent >= txStallTimeout })
}

// failRPCWaits fails, in id order, the unanswered watched RPCs whose reply
// lost says will not come, and forgets the answered ones. A read-only commit
// holds no locks, so it aborts; a slot reservation reports ErrUnavailable,
// and its transaction tries the next candidate region (a late reply is
// dropped, and its slot left to allocator recovery); an application call
// reports ErrUnavailable.
func (m *Machine) failRPCWaits(lost func(rpcWait) bool) {
	var stalled []rpcWait
	kept := m.rpcWaits[:0]
	for _, w := range m.rpcWaits {
		switch {
		case m.rpcWaiters[w.id] == nil: // answered
		case !lost(w):
			kept = append(kept, w)
		default:
			delete(m.rpcWaiters, w.id)
			stalled = append(stalled, w)
		}
	}
	clear(m.rpcWaits[len(kept):]) // hold no finished transaction
	m.rpcWaits = kept
	for _, w := range stalled {
		switch {
		case w.app != nil:
			m.c.Counters.Inc("app_call_stalled", 1)
			w.app(nil, ErrUnavailable)
		case w.alloc != nil:
			m.c.Counters.Inc("alloc_slot_stalled", 1)
			w.alloc(0, 0, ErrUnavailable)
		case !w.t.roFailed:
			m.c.Counters.Inc("tx_ro_validate_stalled", 1)
			w.t.roFail(ErrAborted)
		}
	}
}

// dropAnsweredWaits forgets the answered RPCs at the front of the watch
// list, so that a steady stream of calls keeps it short between sweeps.
func (m *Machine) dropAnsweredWaits() {
	k := 0
	for k < len(m.rpcWaits) && m.rpcWaiters[m.rpcWaits[k].id] == nil {
		k++
	}
	if k > 0 {
		n := copy(m.rpcWaits, m.rpcWaits[k:])
		clear(m.rpcWaits[n:])
		m.rpcWaits = m.rpcWaits[:n]
	}
}

// reportWriteFailure tells the membership layer a log write's retries were
// exhausted against a configuration member. The CM double-checks with its
// own probe protocol before evicting anyone, so false positives cost a
// probe round, not a machine.
func (m *Machine) reportWriteFailure(dst int) {
	if !m.isMember(dst) || dst == m.ID {
		return
	}
	m.c.Counters.Inc("log_write_failed", 1)
	if m.IsCM() {
		m.suspect(dst)
		return
	}
	m.send(int(m.config.CM), &suspectReport{Config: m.config.ID, Suspect: dst})
}
