package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"farm/internal/fabric"
	"farm/internal/proto"
	"farm/internal/sim"
)

// The tests here hold the transaction pool to its rule (DESIGN.md §12,
// "Pooled transactions"): a Tx, and every byte it handed out, is valid
// until its Commit callback or Abort returns, and it goes back to its
// machine's pool only once the application is finished with it, its
// coordTx went back to its own pool, and no read, verdict or allocation of
// it is in flight.

// TestLateVerdictKeepsItsTxOutOfThePool: a read-write commit whose one-sided
// validation read is held up on the wire is aborted by the stall sweep, and
// its truncation recycles its coordTx; the verdict is still due to the Tx,
// so the Tx stays out of the pool and the next transaction on the machine
// gets another, which carves from other chunks. When the late verdict — a
// success — lands, it must not count for that transaction, whose own read
// went stale and must abort; then the first Tx goes back.
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
	runUntil(t, c, sim.Second, func() bool { return tx1.ct != nil })
	ct1, validating := tx1.ct, c.Eng.Now()
	c.RunFor(sim.Millisecond) // the validation read is on its way back
	c.Net.HealLink(fabric.MachineID(prim.ID), fabric.MachineID(coord.ID))
	runUntil(t, c, sim.Second, func() bool { return reported == 1 && slices.Contains(coord.ctFree, ct1) })
	if first != ErrAborted {
		t.Fatalf("first commit: %v, want the stall sweep's ErrAborted", first)
	}
	if slices.Contains(coord.txFree, tx1) {
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
	if !slices.Contains(coord.txFree, tx1) {
		t.Fatal("the first Tx did not go back to the pool once its verdict landed")
	}
}

// TestHeldTruncationKeepsItsTx: a one-way cut toward a backup holds a
// committed transaction's truncation there, so its coordTx stays out of the
// pool, and with it the Tx whose bytes the coordTx's write lists alias. The
// values stay what was written while other transactions run on the
// coordinator, through a power cycle — which rebuilds every ring
// (reestablishRings) and queues the truncation again — and more
// transactions after it. Once the link heals — while the fresh ring still
// retries the truncation it sent again — the truncation lands, the Tx
// goes back to the pool and the audit finds every replica equal.
func TestHeldTruncationKeepsItsTx(t *testing.T) {
	c, region := testCluster(t, Options{})
	_, coord := primaryAndOutsider(t, c, region)
	var backup *Machine // neither end of the cut may be the CM: leases cross it
	for _, r := range c.Machine(0).mapping(region).Replicas[1:] {
		if m := c.Machine(int(r)); !m.IsCM() {
			backup = m
		}
	}
	// The other transactions write a region the backup holds no replica of,
	// so that none of their records waits behind the cut.
	other := regionAvoiding(t, c, []int{backup.ID}, nil)
	x := writeObjectIn(t, c, coord, region, []byte("00000000"))
	var ys [4]proto.Addr
	for i := range ys {
		ys[i] = writeObjectIn(t, c, coord, other, []byte("00000000"))
	}
	c.RunFor(20 * sim.Millisecond)

	tx := coord.Begin(0)
	txRead(t, c, tx, x, 8)
	want := []byte("held-tx!")
	tx.Write(x, want)
	done := false
	tx.Commit(func(err error) {
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		c.CutLink(coord.ID, backup.ID)
		done = true
	})
	runUntil(t, c, sim.Second, func() bool { return done })
	q := &coord.peer(backup.ID).truncQ
	if len(q.txs) != 1 || q.txs[0].tx != tx {
		t.Fatalf("%d transactions awaiting truncation toward m%d, want the one just committed", len(q.txs), backup.ID)
	}
	ct := q.txs[0]
	check := func(when string) {
		t.Helper()
		if slices.Contains(coord.txFree, tx) || ct.tx != tx {
			t.Fatalf("%s: the Tx went back to the pool while its truncation is held", when)
		}
		for _, g := range ct.groups {
			for _, w := range slices.Concat(g.primWrites, g.backupWrites) {
				if !bytes.Equal(w.Value, want) {
					t.Fatalf("%s: a record's value reads %q, want %q", when, w.Value, want)
				}
			}
		}
	}
	load := func() {
		t.Helper()
		for i := 0; i < 64; i++ {
			var done bool
			var err error
			update(t, coord, i%coord.Threads(), ys[i%len(ys)], []byte(fmt.Sprintf("%08d", i)), &done, &err)
			runUntil(t, c, sim.Second, func() bool { return done })
			if err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
		}
	}
	check("at the commit")
	load()
	check("after other transactions")
	c.PowerCycle(10 * sim.Millisecond)
	restored := c.Now()
	load()
	check("after a power cycle and other transactions")
	if len(q.txs) != 1 || q.txs[0] != ct {
		t.Fatalf("after the power cycle %d transactions await truncation toward m%d", len(q.txs), backup.ID)
	}
	// Healed while the fresh ring still retries the queued truncation.
	t.Logf("healed %v after the restore", c.Now()-restored)

	c.HealLink(coord.ID, backup.ID)
	runUntil(t, c, sim.Second, func() bool { return slices.Contains(coord.txFree, tx) })
	if len(q.txs) > 0 {
		t.Fatalf("%d transactions still await truncation toward m%d", len(q.txs), backup.ID)
	}
	for _, r := range conclusiveAudit(t, c) {
		if !r.Clean {
			t.Errorf("%v", r)
		}
	}
	if got := readObject(t, c, coord, x, 8); !bytes.Equal(got, want) {
		t.Fatalf("x reads %q, want %q", got, want)
	}
}
