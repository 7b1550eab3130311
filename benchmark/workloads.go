package main

import (
	"encoding/binary"
	"fmt"

	"farm/internal/bank"
	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/sim"
	"farm/internal/tatp"
	"farm/internal/tpcc"
	"farm/internal/ycsb"
)

// spec is one row of the workload table in README.md. Every workload is a
// closed loop: machines × threads × conc clients, each issuing its next
// operation when the previous one completes, an aborted attempt retrying
// after loadgen's back-off.
type spec struct {
	name string
	why  string

	machines, threads, conc int
	rows                    int      // keys, subscribers or accounts; tpcc has one warehouse per client
	logCapacity             int      // 0 = core default
	lease                   sim.Time // 0 = core default

	// vmsPerSec is the virtual milliseconds measured per second of
	// --seconds. It was sized on the 2-core reference host so that one
	// second of virtual window costs about one second of wall; the window
	// is a pure function of (--seconds, workload), so virtual-time metrics
	// repeat exactly for a seed on any host.
	vmsPerSec float64
	// killFrac, when > 0, kills killMachine that share of the way into
	// the window (tatp_failover: 20 ms loaded, then 100 ms).
	killFrac    float64
	killMachine int

	setup func(c *core.Cluster, sp *spec, r *recorder) (*driver, error)
}

// driver is a populated workload: the labelled operation and its checks.
type driver struct {
	op loadgen.Op
	// drained runs after the generator has stopped and in-flight
	// operations have completed; it returns failed checks.
	drained func(c *core.Cluster) []string
	// noConflicts says no attempt may fail: there are no writers, so a
	// not-ok is a failed operation and not a retried conflict.
	noConflicts bool
	// tpcc is set on tpcc_mix, for the workload's own new-order histogram.
	tpcc *tpcc.Workload
}

// Operation kinds the harness labels. kindAny is for workloads whose mix is
// drawn inside the workload package (tpcc: NewOrder takes an unexported
// warehouse, so the harness cannot draw that mix itself).
const (
	kindLookup = iota
	kindTatpRead
	kindTatpUpdate
	kindTransfer
	kindAudit
	kindAny
	numKinds
)

var kindNames = [numKinds]string{"lookup", "tatp.read", "tatp.update", "bank.transfer", "bank.audit", "tpcc.mix"}

const bankInitial = 1000

var specs = []spec{
	{
		name: "kv_lookup", machines: 9, threads: 8, conc: 4, rows: 20000, vmsPerSec: 15,
		why: "control: lock-free one-sided reads only (sim+fabric+kv); commit path, rings and transport do no work, so a change there must predict no change",
		setup: func(c *core.Cluster, sp *spec, r *recorder) (*driver, error) {
			w, err := ycsb.Setup(c, uint64(sp.rows), 6)
			if err != nil {
				return nil, err
			}
			// The same draw as ycsb.LookupOp, labelled.
			op := func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
				id := rng.Uint64n(w.Keys)
				done = r.start(kindLookup, m, thread, done)
				w.Table.LockFreeGet(m, thread, ycsb.Key(id), func(_ []byte, ok bool, err error) {
					done(err == nil && ok)
				})
			}
			return &driver{op: op, noConflicts: true}, nil
		},
	},
	{
		name: "tatp_mix", machines: 9, threads: 8, conc: 4, rows: 10000, vmsPerSec: 12,
		why:   "paper Fig 7: 80% reads (70% one RDMA read), 20% small updates; rows >> clients, so it measures the read path and the short-commit path, not contention",
		setup: setupTatp,
	},
	{
		name: "bank_lowload", machines: 9, threads: 2, conc: 1, rows: 4096, vmsPerSec: 60,
		why: "18 clients, no queueing, 2-object write sets: p50 is the commit protocol's critical path; batching that helps saturated throughput costs latency here",
		setup: func(c *core.Cluster, sp *spec, r *recorder) (*driver, error) {
			w, err := bank.Setup(c, sp.rows, 6, bankInitial)
			if err != nil {
				return nil, err
			}
			// The same draw as bank.Mix, labelled.
			op := func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
				if rng.Intn(10) == 0 {
					w.Audit(m, thread, rng, r.start(kindAudit, m, thread, done))
					return
				}
				w.Transfer(m, thread, rng, r.start(kindTransfer, m, thread, done))
			}
			return &driver{op: op, drained: func(c *core.Cluster) []string { return checkBank(c, w) }}, nil
		},
	},
	{
		name: "tpcc_mix", machines: 9, threads: 8, conc: 1, vmsPerSec: 4,
		why: "paper Fig 8: write-heavy 10-40-object write sets through btree+kv+regionmem+ring; saturates worker threads; core, ring, btree and allocation dominate, fabric reads do not",
		setup: func(c *core.Cluster, sp *spec, r *recorder) (*driver, error) {
			w, err := tpcc.Setup(c, tpcc.DefaultConfig(sp.clients()))
			if err != nil {
				return nil, err
			}
			mix := w.Mix()
			op := func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
				mix(m, thread, rng, r.start(kindAny, m, thread, done))
			}
			return &driver{op: op, tpcc: w}, nil
		},
	},
	{
		name: "tatp_failover", machines: 9, threads: 8, conc: 4, rows: 10000, vmsPerSec: 12,
		lease: 10 * sim.Millisecond, killFrac: 1.0 / 6, killMachine: 3,
		why:   "paper Fig 9, the availability third: lease expiry, reconfiguration, transaction recovery and re-replication do the work; wall rates include the dead period by design",
		setup: setupTatp,
	},
	{
		name: "tatp_scale100", machines: 100, threads: 8, conc: 4, rows: 10000, vmsPerSec: 1.2, logCapacity: 1 << 15,
		why:   "100 machines, 3200 clients: deepest event heap, machines^2 rings, 11% aborts; same TATP code as tatp_mix, so a simulator change that helps at 9 and hurts at 100 shows",
		setup: setupTatp,
	},
}

// clients is the closed-loop client count.
func (sp *spec) clients() int { return sp.machines * sp.threads * sp.conc }

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// setupTatp populates the subscribers over 12 regions (10 000 of them:
// 20 000 in 12 regions fails with "kv: out of space") and draws the standard
// 35/10/35/2/14/2/2 mix exactly as tatp.Mix does, labelling each
// operation read or update.
func setupTatp(c *core.Cluster, sp *spec, r *recorder) (*driver, error) {
	w, err := tatp.Setup(c, uint64(sp.rows), 12)
	if err != nil {
		return nil, err
	}
	op := func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
		s := rng.Uint64n(w.N)
		switch p := rng.Intn(100); {
		case p < 35:
			w.GetSubscriberData(m, thread, s, r.start(kindTatpRead, m, thread, done))
		case p < 45:
			w.GetNewDestination(m, thread, s, rng, r.start(kindTatpRead, m, thread, done))
		case p < 80:
			w.GetAccessData(m, thread, s, rng, r.start(kindTatpRead, m, thread, done))
		case p < 82:
			w.UpdateSubscriberData(m, thread, s, rng, r.start(kindTatpUpdate, m, thread, done))
		case p < 96:
			w.UpdateLocation(m, thread, s, rng, r.start(kindTatpUpdate, m, thread, done))
		case p < 98:
			w.InsertCallForwarding(m, thread, s, rng, r.start(kindTatpUpdate, m, thread, done))
		default:
			w.DeleteCallForwarding(m, thread, s, rng, r.start(kindTatpUpdate, m, thread, done))
		}
	}
	return &driver{op: op}, nil
}

// checkBank judges conservation from what the primaries store, not from
// what transactions reported reading.
func checkBank(c *core.Cluster, w *bank.Workload) []string {
	var sum uint64
	for _, a := range w.Accounts {
		b, err := c.PeekObject(a, 8)
		if err != nil {
			return []string{fmt.Sprintf("bank: peek %v: %v", a, err)}
		}
		sum += binary.LittleEndian.Uint64(b)
	}
	if sum != w.Total() {
		return []string{fmt.Sprintf("bank: conservation violated: sum %d, want %d", sum, w.Total())}
	}
	return nil
}
