// Package bank implements the uniform bank-transfer microbenchmark used
// across the repo's experiments: fixed-size accounts spread over a set of
// regions, two-account transfers that exercise the full four-phase commit
// (locks at two primaries, backup fan-out), and read-only audits that
// exercise validation-only commits. It is the write-heavy counterpart to
// TATP's read-dominated mix, so latency experiments report both ends of
// the spectrum. The chaos campaign and examples/bank drive the same
// Transfer, and judge conservation with Sum.
package bank

import (
	"encoding/binary"
	"fmt"

	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/proto"
	"farm/internal/sim"
)

// auditReads is how many accounts one read-only audit scans.
const auditReads = 4

// Workload holds the opened accounts.
type Workload struct {
	C        *core.Cluster
	Accounts []proto.Addr
	Initial  uint64

	// free holds finished Transfer and Audit state machines for reuse (txOp).
	free []*txOp
}

// Setup creates `regions` fresh regions and opens `accounts` accounts with
// `initial` balance each. Accounts are opened in batches of eight per
// setup transaction, rotating the allocating machine so the allocator's
// local-primary preference spreads accounts across the cluster. Transfer
// needs two distinct accounts, so fewer than two is an error.
func Setup(c *core.Cluster, accounts, regions int, initial uint64) (*Workload, error) {
	if accounts < 2 {
		return nil, fmt.Errorf("bank: %d accounts, need at least 2 to transfer between", accounts)
	}
	if _, err := c.CreateRegions(0, regions, 0); err != nil {
		return nil, err
	}
	w := &Workload{C: c, Accounts: make([]proto.Addr, accounts), Initial: initial}
	const perTx = 8
	for base := 0; base < accounts; base += perTx {
		base := base
		m := c.Machine(base / perTx % len(c.Machines))
		err := loadgen.RunSync(c, m, 0, func(tx *core.Tx, done func(error)) {
			var open func(i int)
			open = func(i int) {
				if i >= perTx || base+i >= accounts {
					done(nil)
					return
				}
				tx.Alloc(8, u64b(initial), nil, func(a proto.Addr, err error) {
					if err != nil {
						done(err)
						return
					}
					w.Accounts[base+i] = a
					open(i + 1)
				})
			}
			open(0)
		})
		if err != nil {
			return nil, fmt.Errorf("bank: open accounts at %d: %w", base, err)
		}
	}
	return w, nil
}

// Total is the conserved sum of all balances.
func (w *Workload) Total() uint64 { return w.Initial * uint64(len(w.Accounts)) }

// Mix returns the standard operation mix: 90% two-account transfers and
// 10% read-only audits.
func (w *Workload) Mix() loadgen.Op {
	return func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
		if rng.Intn(10) == 0 {
			w.Audit(m, thread, rng, done)
			return
		}
		w.Transfer(m, thread, rng, done)
	}
}

// Transfer moves a small random amount between two uniformly chosen
// accounts: read both, check funds, write both, full commit protocol. An
// insufficient balance still commits — as a read-only transaction through
// validation — because the business outcome ("declined") is a completed
// operation, not a conflict.
func (w *Workload) Transfer(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
	n := len(w.Accounts)
	from := w.Accounts[rng.Intn(n)]
	to := w.Accounts[rng.Intn(n)]
	for to == from {
		to = w.Accounts[rng.Intn(n)]
	}
	amount := uint64(rng.Intn(9) + 1)
	o := w.newOp(m, thread, rng, done)
	o.from, o.to, o.amount = from, to, amount
	o.stage = readFrom
	o.tx.ReadTo(from, 8, o)
}

// Audit reads a handful of uniformly chosen accounts and commits without
// writing, exercising the read-validation-only commit path.
func (w *Workload) Audit(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
	o := w.newOp(m, thread, rng, done)
	o.stage = auditRead
	o.auditNext()
}

// txOp is one Transfer or Audit as a pooled state machine: stage says which
// read is outstanding, it is the reads' handler, and its commit callback is
// bound once. It returns to the workload's pool, reset whole, before done
// runs, so a done that starts the next operation reuses it.
type txOp struct {
	w    *Workload
	tx   *core.Tx
	rng  *sim.Rand
	done func(bool)

	stage    uint8
	from, to proto.Addr
	amount   uint64
	fromBal  uint64 // the balance the first read found
	reads    int    // an audit's reads delivered
	val      [8]byte

	commitFn func(err error)
}

// What a txOp is waiting for.
const (
	readFrom  = iota // a transfer's read of its source account
	readTo           // its read of the destination
	auditRead        // an audit's current read
)

func (w *Workload) newOp(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) *txOp {
	var o *txOp
	if k := len(w.free); k > 0 {
		o = w.free[k-1]
		w.free = w.free[:k-1]
	} else {
		o = &txOp{w: w}
		o.commitFn = o.committed
	}
	o.rng, o.done = rng, done
	o.tx = m.Begin(thread)
	return o
}

// finish returns the state machine to the pool, reset whole but for its
// workload and bound callback, then reports ok.
func (o *txOp) finish(ok bool) {
	w, done := o.w, o.done
	*o = txOp{w: w, commitFn: o.commitFn}
	w.free = append(w.free, o)
	done(ok)
}

// ReadDone takes the account a read delivered.
func (o *txOp) ReadDone(data []byte, err error) {
	if err != nil {
		o.tx.Abort()
		o.finish(false)
		return
	}
	switch o.stage {
	case readFrom:
		o.fromBal = u64(data)
		o.stage = readTo
		o.tx.ReadTo(o.to, 8, o)
	case readTo:
		if o.fromBal >= o.amount {
			// Write copies the value, so one buffer serves both accounts.
			binary.LittleEndian.PutUint64(o.val[:], o.fromBal-o.amount)
			o.tx.Write(o.from, o.val[:])
			binary.LittleEndian.PutUint64(o.val[:], u64(data)+o.amount)
			o.tx.Write(o.to, o.val[:])
		}
		o.tx.Commit(o.commitFn)
	case auditRead:
		o.reads++
		o.auditNext()
	}
}

// auditNext reads the next uniformly chosen account, or commits once all
// auditReads are in.
func (o *txOp) auditNext() {
	if o.reads == auditReads {
		o.tx.Commit(o.commitFn)
		return
	}
	accounts := o.w.Accounts
	o.tx.ReadTo(accounts[o.rng.Intn(len(accounts))], 8, o)
}

func (o *txOp) committed(err error) { o.finish(err == nil) }

// Sum reads every account inside the caller's transaction and reports the
// total; it neither commits nor aborts tx. A failed read stops the scan and
// names its account.
func (w *Workload) Sum(tx *core.Tx, done func(sum uint64, err error)) {
	var sum uint64
	var read func(i int)
	read = func(i int) {
		if i == len(w.Accounts) {
			done(sum, nil)
			return
		}
		tx.Read(w.Accounts[i], 8, func(b []byte, err error) {
			if err != nil {
				done(0, fmt.Errorf("account %d unreadable: %w", i, err))
				return
			}
			sum += u64(b)
			read(i + 1)
		})
	}
	read(0)
}

func u64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

func u64b(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}
