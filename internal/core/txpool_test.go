package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"farm/internal/fabric"
	"farm/internal/history"
	"farm/internal/proto"
	"farm/internal/sim"
)

// The tests here hold the transaction pool to its rule (DESIGN.md §12,
// "Pooled objects"): a Tx, and every byte it handed out, is valid
// until its Commit callback or Abort returns, and it goes back to its
// machine's pool only once the application is finished with it, its commit
// retired (its truncation finished, or it failed before its reservations),
// and no read, verdict or allocation of it is in flight.

// TestLateVerdictKeepsItsTxOutOfThePool: a read-write commit whose one-sided
// validation read is held up on the wire is aborted by the stall sweep, and
// its truncation finishes, which retires the commit; the verdict is still
// due to the Tx, so the Tx stays out of the pool and the next transaction
// on the machine gets another, which carves from other chunks. When the late
// verdict — a success — lands, it must not count for that transaction, whose
// own read went stale and must abort; then the first Tx goes back.
func TestLateVerdictKeepsItsTxOutOfThePool(t *testing.T) {
	c := New(Options{NumMachines: 5, Seed: 19})
	cm := int(c.Machine(0).config.CM)
	readRegion := regionAvoiding(t, c, nil, []int{cm})
	prim, coord := primaryAndOutsider(t, c, readRegion)
	writeRegion := regionAvoiding(t, c, []int{prim.ID}, []int{coord.ID})
	a := writeObjectIn(t, c, prim, readRegion, []byte("aaaaaaaa"))
	b := writeObjectIn(t, c, prim, readRegion, []byte("bbbbbbbb"))
	w := writeObjectIn(t, c, c.Machine(int(c.Machine(0).mapping(writeRegion).Replicas[0])), writeRegion, []byte("wwwwwwww"))
	c.RunFor(20 * sim.Millisecond)

	tx1 := coord.Begin(0)
	txRead(t, c, tx1, a, 8)
	txRead(t, c, tx1, w, 8)
	tx1.Write(w, []byte("xxxxxxxx"))

	const late = 80 * sim.Millisecond
	link := func(d sim.Time) {
		c.Net.SetLinkFault(fabric.MachineID(prim.ID), fabric.MachineID(coord.ID), fabric.LinkFault{Delay: sim.Fixed(d)})
	}
	link(late)
	var first, second error
	reported := 0
	tx1.Commit(func(err error) { first = err; reported++ })
	runUntil(t, c, sim.Second, func() bool { return tx1.phase == phaseValidate })
	validating := c.Eng.Now()
	c.RunFor(sim.Millisecond) // the validation read is on its way back
	c.Net.HealLink(fabric.MachineID(prim.ID), fabric.MachineID(coord.ID))
	runUntil(t, c, sim.Second, func() bool { return reported == 1 && tx1.phase == phaseIdle })
	if first != ErrAborted {
		t.Fatalf("first commit: %v, want the stall sweep's ErrAborted", first)
	}
	if coord.txs.Holds(tx1) {
		t.Fatal("the Tx went back to the pool with a verdict still due to it")
	}

	tx2 := coord.Begin(0)
	if tx2 == tx1 {
		t.Fatal("Begin took a Tx a verdict is still due to")
	}
	txRead(t, c, tx2, b, 8)
	txRead(t, c, tx2, w, 8)
	tx2.Write(w, []byte("yyyyyyyy"))
	// Nor are the first Tx's chunks in the machine's pool: the second
	// carves its copies elsewhere.
	if got := tx1.set[tx1.find(a)].data; string(got) != "aaaaaaaa" {
		t.Fatalf("the first Tx's copy of a reads %q: its chunk was handed out", got)
	}
	if got := tx1.set[tx1.find(w)].value; string(got) != "xxxxxxxx" {
		t.Fatalf("the first Tx's write of w reads %q: its chunk was handed out", got)
	}
	var staled bool
	var err error
	update(t, prim, 2, b, []byte("BBBBBBBB"), &staled, &err)
	runUntil(t, c, sim.Second, func() bool { return staled })
	if err != nil {
		t.Fatalf("update of b: %v", err)
	}
	if c.Eng.Now() > validating+late-10*sim.Millisecond {
		t.Fatalf("set-up took until %v after the first commit began validating, too close to its verdict at %v", c.Eng.Now()-validating, late)
	}
	// The second commit's validation read returns 5 ms after the first
	// commit's.
	c.RunFor(validating + late - 5*sim.Millisecond - c.Eng.Now())
	link(10 * sim.Millisecond)
	tx2.Commit(func(err error) { second = err; reported++ })
	runUntil(t, c, sim.Second, func() bool { return reported == 2 })
	if second != ErrConflict {
		t.Fatalf("second commit over a stale read: %v, want ErrConflict", second)
	}
	if !coord.txs.Holds(tx1) {
		t.Fatal("the first Tx did not go back to the pool once its verdict landed")
	}
}

// heldTruncation is a committed transaction whose truncation a one-way cut
// toward one of its backups holds at the coordinator, and with it the Tx
// whose bytes the commit's write lists alias. Neither end of the cut is the
// CM (leases cross it), and ys are objects of a region the backup holds no
// replica of, so that the load's records wait behind no cut.
type heldTruncation struct {
	t             *testing.T
	c             *Cluster
	coord, backup *Machine
	x             proto.Addr
	ys            [4]proto.Addr
	tx            *Tx
	q             *truncQueue
	want          []byte
}

func holdTruncation(t *testing.T, opts Options) *heldTruncation {
	c, region := testCluster(t, opts)
	h := &heldTruncation{t: t, c: c, want: []byte("held-tx!")}
	_, h.coord = primaryAndOutsider(t, c, region)
	for _, r := range c.Machine(0).mapping(region).Replicas[1:] {
		if m := c.Machine(int(r)); !m.IsCM() {
			h.backup = m
		}
	}
	other := regionAvoiding(t, c, []int{h.backup.ID}, nil)
	h.x = writeObjectIn(t, c, h.coord, region, []byte("00000000"))
	for i := range h.ys {
		h.ys[i] = writeObjectIn(t, c, h.coord, other, []byte("00000000"))
	}
	c.RunFor(20 * sim.Millisecond)

	h.tx = h.coord.Begin(0)
	txRead(t, c, h.tx, h.x, 8)
	h.tx.Write(h.x, h.want)
	done := false
	h.tx.Commit(func(err error) {
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		c.CutLink(h.coord.ID, h.backup.ID)
		done = true
	})
	runUntil(t, c, sim.Second, func() bool { return done })
	h.q = &h.coord.peer(h.backup.ID).truncQ
	if len(h.q.txs) != 1 || h.q.txs[0] != h.tx {
		t.Fatalf("%d transactions awaiting truncation toward m%d, want the one just committed", len(h.q.txs), h.backup.ID)
	}
	return h
}

// check fails unless the transaction is still held, with its values.
func (h *heldTruncation) check(when string) {
	h.t.Helper()
	if h.coord.txs.Holds(h.tx) || h.tx.phase != phaseDone {
		h.t.Fatalf("%s: the Tx went back to the pool, or its commit retired, while its truncation is held", when)
	}
	for _, g := range h.tx.groups {
		for _, w := range slices.Concat(g.primWrites, g.backupWrites) {
			if !bytes.Equal(w.Value, h.want) {
				h.t.Fatalf("%s: a record's value reads %q, want %q", when, w.Value, h.want)
			}
		}
	}
}

// load runs 64 more transactions on the coordinator, one after the other.
func (h *heldTruncation) load() {
	h.t.Helper()
	for i := 0; i < 64; i++ {
		var done bool
		var err error
		update(h.t, h.coord, i%h.coord.Threads(), h.ys[i%len(h.ys)], []byte(fmt.Sprintf("%08d", i)), &done, &err)
		runUntil(h.t, h.c, sim.Second, func() bool { return done })
		if err != nil {
			h.t.Fatalf("update %d: %v", i, err)
		}
	}
}

// TestHeldTruncationKeepsItsTx: the held transaction's values stay what was
// written while other transactions run on the coordinator, through a power
// cycle — which rebuilds every ring (reestablishRings) and queues the
// truncation again — and more transactions after it. Once the link heals —
// while the fresh ring still retries the truncation it sent again — the
// truncation lands, the Tx goes back to the pool and the audit finds every
// replica equal.
func TestHeldTruncationKeepsItsTx(t *testing.T) {
	h := holdTruncation(t, Options{})
	c, coord, backup, q := h.c, h.coord, h.backup, h.q
	h.check("at the commit")
	h.load()
	h.check("after other transactions")
	c.PowerCycle(10 * sim.Millisecond)
	restored := c.Now()
	h.load()
	h.check("after a power cycle and other transactions")
	if len(q.txs) != 1 || q.txs[0] != h.tx {
		t.Fatalf("after the power cycle %d transactions await truncation toward m%d", len(q.txs), backup.ID)
	}
	// Healed while the fresh ring still retries the queued truncation.
	t.Logf("healed %v after the restore", c.Now()-restored)

	c.HealLink(coord.ID, backup.ID)
	runUntil(t, c, sim.Second, func() bool { return coord.txs.Holds(h.tx) })
	if len(q.txs) > 0 {
		t.Fatalf("%d transactions still await truncation toward m%d", len(q.txs), backup.ID)
	}
	for _, r := range conclusiveAudit(t, c) {
		if !r.Clean {
			t.Errorf("%v", r)
		}
	}
	if got := readObject(t, c, coord, h.x, 8); !bytes.Equal(got, h.want) {
		t.Fatalf("x reads %q, want %q", got, h.want)
	}
}

// TestTruncationFailingForGoodIsReported: healed only 200 ms after the
// power restore, the cut outlasts the fresh ring's retries, and the
// TRUNCATE the flush timer wrote fails for good — the only record toward
// the backup that does. The failure is reported like a commit record's:
// the backup is suspected and leaves, its truncation queue with it, and the
// held Tx goes back to its pool; the history is strictly serializable and
// the audit finds every replica equal. Checked pools (History) zero the Tx
// at its release, so the pool's in-use count is what shows it back.
func TestTruncationFailingForGoodIsReported(t *testing.T) {
	h := holdTruncation(t, Options{History: true})
	c, coord, backup := h.c, h.coord, h.backup
	c.PowerCycle(10 * sim.Millisecond)
	restored := c.Now()
	h.load()
	h.check("after a power cycle and other transactions")
	c.RunFor(restored + 200*sim.Millisecond - c.Now())
	c.HealLink(coord.ID, backup.ID)
	runUntil(t, c, sim.Second, func() bool { return coord.txs.InUse() == 0 })
	if c.Counters.Get("log_write_failed") == 0 || coord.isMember(backup.ID) {
		t.Fatalf("log_write_failed %d, m%d a member: %v; want the backup reported and gone",
			c.Counters.Get("log_write_failed"), backup.ID, coord.isMember(backup.ID))
	}
	for _, r := range conclusiveAudit(t, c) {
		if !r.Clean {
			t.Errorf("%v", r)
		}
	}
	if rep := history.Check(c.Hist.Export()); !rep.Ok() {
		t.Fatalf("history: %v", rep)
	}
}
