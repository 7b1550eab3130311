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
// its coordinator aborts it (lock and validate phases), and how long a call
// the table does not resend waits for its answer.
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
			t := m.inflight[id]
			if t == nil || t.recovering {
				continue
			}
			if t.phase != phaseLock && t.phase != phaseValidate {
				continue
			}
			if now-t.lastProgress < txStallTimeout {
				continue
			}
			m.c.Counters.Inc("tx_stall_aborted", 1)
			m.abortTx(t, ErrAborted)
		}
		// Calls the table does not resend fail unanswered after
		// txStallTimeout (an answer lost with its machine, or never sent).
		m.failCalls(func(c pendingCall) bool { return c.every == 0 && now-c.sent >= txStallTimeout })
		m.armTxStallSweep()
	})
}

// reportWriteFailure tells the membership layer a log write's retries were
// exhausted against a configuration member. The CM double-checks with its
// own probe protocol before evicting anyone, so false positives cost a
// probe round, not a machine. A failed write to the CM suspects the CM
// (§5.2 step 1).
func (m *Machine) reportWriteFailure(dst int) {
	if !m.isMember(dst) || dst == m.ID {
		return
	}
	m.c.Counters.Inc("log_write_failed", 1)
	switch {
	case m.IsCM():
		m.suspect(dst)
	case dst == int(m.config.CM):
		m.suspectCM()
	default:
		m.send(int(m.config.CM), &suspectReport{Config: m.config.ID, Suspect: dst})
	}
}
