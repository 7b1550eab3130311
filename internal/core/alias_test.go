package core

import (
	"bytes"
	"errors"
	"testing"

	"farm/internal/proto"
	"farm/internal/sim"
)

// TestHeldLockRecordSurvivesLogWrap is the record-ownership rule seen from
// core: recovery messages (SendTxState, ReplicateTxState) carry clones of
// participant records whose ObjectWrite.Values alias the ring frame's
// private payload copy. Clone a participant's record while its transaction
// is in flight — exactly what a recovery message would carry — then let the
// transaction truncate and drive enough traffic through a deliberately
// small log to wrap every ring several times. The held values must not
// change.
func TestHeldLockRecordSurvivesLogWrap(t *testing.T) {
	const logCap = 1 << 12
	c, _ := testCluster(t, Options{LogCapacity: logCap})
	val := bytes.Repeat([]byte{0xC3}, 96)
	addr := writeObject(t, c, c.Machine(0), make([]byte, len(val)))

	tx := c.Machine(0).Begin(0)
	done := false
	tx.Read(addr, len(val), func(_ []byte, err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		tx.Write(addr, val)
		tx.Commit(func(err error) {
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			done = true
		})
	})
	var held []*proto.Record
	holding := map[*proto.Record]bool{}
	for steps := 0; steps < 1_000_000 && !(done && len(c.Machine(0).inflight) == 0); steps++ {
		if !c.Eng.Step() {
			break
		}
		for _, m := range c.Machines {
			for _, rt := range m.pend {
				// (the set-up transaction's records carry zeros, not val)
				if rt.lock != nil && !holding[rt.lock] && bytes.Equal(rt.lock.Writes[0].Value, val) {
					holding[rt.lock] = true
					held = append(held, rt.lock.Clone())
				}
			}
		}
	}
	if !done || len(held) < 2 {
		t.Fatalf("done=%v, held %d records; want the primary's LOCK and the backups' COMMIT-BACKUP", done, len(held))
	}

	appended := func() (n uint64) {
		for _, p := range c.Machine(0).peers {
			w := p.logW
			n += w.Appended()
		}
		return
	}
	start := appended()
	for i := 0; appended()-start < 4*logCap*uint64(len(c.Machines)); i++ {
		writeObject(t, c, c.Machine(0), bytes.Repeat([]byte{byte(i)}, 96))
		if i > 10_000 {
			t.Fatal("log never wrapped")
		}
	}
	c.RunFor(5 * sim.Millisecond)
	for _, m := range c.Machines {
		if len(m.pend) != 0 {
			t.Fatalf("machine %d still holds %d participant entries: the held frames were not truncated", m.ID, len(m.pend))
		}
	}

	for i, rec := range held {
		if len(rec.Writes) != 1 || rec.Writes[0].Addr != addr || !bytes.Equal(rec.Writes[0].Value, val) {
			t.Fatalf("held record %d (%v) changed after its log wrapped: %+v", i, rec.Type, rec.Writes)
		}
	}
}

// The tests below hold core to the execute-phase ownership rules of
// DESIGN.md §12: bytes a read callback receives are the caller's alone —
// carved from the transaction's slab, capacity-capped, never the read set's
// private copy — and slabs are never reused across transactions.

// txRead runs tx.Read and the simulation until it delivers.
func txRead(t *testing.T, c *Cluster, tx *Tx, addr proto.Addr, size int) []byte {
	t.Helper()
	var out []byte
	done := false
	tx.Read(addr, size, func(data []byte, err error) {
		if err != nil {
			t.Fatalf("read %v: %v", addr, err)
		}
		out, done = data, true
	})
	runUntil(t, c, sim.Second, func() bool { return done })
	return out
}

// txCommit runs tx.Commit and the simulation until it reports.
func txCommit(t *testing.T, c *Cluster, tx *Tx) error {
	t.Helper()
	var out error
	done := false
	tx.Commit(func(err error) { out, done = err, true })
	runUntil(t, c, sim.Second, func() bool { return done })
	return out
}

// TestReadDataLivesUntilItsTransactionFinishes: what Tx.Read delivered is
// unchanged while its transaction is open, through a thousand later
// transactions on the same thread — which rewrite the very object it came
// from, on Txs and chunks recycled from one another — and in its commit
// callback. Once that returns the Tx goes back to its machine's pool, and
// the next Begin takes it with its chunks, whose bytes it hands out
// cleared.
func TestReadDataLivesUntilItsTransactionFinishes(t *testing.T) {
	c, _ := testCluster(t, Options{})
	m := c.Machine(0)
	orig := bytes.Repeat([]byte{0xA5}, 48)
	addr := writeObject(t, c, m, orig)

	tx := m.Begin(0)
	held := txRead(t, c, tx, addr, len(orig))
	again := txRead(t, c, tx, addr, len(orig)) // repeated read: a copy of its own
	for i := 0; i < 1000; i++ {
		tx := m.Begin(0)
		d := txRead(t, c, tx, addr, len(orig))
		for j := range d {
			d[j] = byte(i)
		}
		tx.Write(addr, d)
		if err := txCommit(t, c, tx); err != nil {
			t.Fatalf("later transaction %d: %v", i, err)
		}
	}
	if !bytes.Equal(held, orig) || !bytes.Equal(again, orig) {
		t.Fatalf("data held in an open transaction changed: %x / %x", held[:4], again[:4])
	}
	done := false
	tx.Commit(func(err error) {
		// (It commits: a read-only transaction serializes at its one read.)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(held, orig) || !bytes.Equal(again, orig) {
			t.Fatalf("data changed before the commit callback returned: %x / %x", held[:4], again[:4])
		}
		done = true
	})
	runUntil(t, c, sim.Second, func() bool { return done })
	if !m.txs.Holds(tx) {
		t.Fatal("the finished transaction did not go back to its machine's pool")
	}
	next := m.Begin(0)
	if next != tx {
		t.Fatal("Begin did not take the pooled transaction")
	}
	if b := next.carve(len(orig)); !bytes.Equal(b, make([]byte, len(orig))) {
		t.Fatalf("a recycled chunk carved %x, want zeroes", b[:4])
	}
	next.Abort()
}

// TestDeliveredBytesAreTheCallersAlone: appending to or overwriting a
// delivered slice changes no neighbouring read's data, no later repeated
// read, not the buffered write it was passed to, and not what Commit writes.
func TestDeliveredBytesAreTheCallersAlone(t *testing.T) {
	c, _ := testCluster(t, Options{})
	m := c.Machine(0)
	a0, b0 := bytes.Repeat([]byte{0x11}, 32), bytes.Repeat([]byte{0x22}, 32)
	addrA := writeObject(t, c, m, a0)
	addrB := writeObject(t, c, m, b0)

	tx := m.Begin(0)
	a := txRead(t, c, tx, addrA, 32)
	b := txRead(t, c, tx, addrB, 32)
	if cap(a) != len(a) || cap(b) != len(b) {
		t.Fatalf("delivered slices are not capacity-capped: cap %d/%d for len %d", cap(a), cap(b), len(a))
	}
	_ = append(a, bytes.Repeat([]byte{0xEE}, 64)...) // would run into b if it could
	for i := range a {
		a[i] = 0xEE
	}
	if !bytes.Equal(b, b0) {
		t.Fatal("scribbling on one read's data changed its neighbour's")
	}
	if got := txRead(t, c, tx, addrA, 32); !bytes.Equal(got, a0) {
		t.Fatalf("repeated read returned the caller's scribble: %x", got[:4])
	}

	// A buffered write is a copy: neither the buffer passed to Write nor a
	// read-your-writes result reaches it.
	b1 := bytes.Repeat([]byte{0x33}, 32)
	tx.Write(addrB, b1)
	for i := range b1 {
		b1[i] = 0xEE
	}
	ryw := txRead(t, c, tx, addrB, 32)
	for i := range ryw {
		ryw[i] = 0xEE
	}
	for i := range b {
		b[i] = 0xEE
	}
	// A was read, not written: it is validated, and must pass.
	if err := txCommit(t, c, tx); err != nil {
		t.Fatalf("commit: %v", err)
	}
	c.RunFor(sim.Millisecond) // the primary applies COMMIT-PRIMARY after the report
	if got, _ := c.PeekObject(addrB, 32); !bytes.Equal(got, bytes.Repeat([]byte{0x33}, 32)) {
		t.Fatalf("commit wrote %x, want the value passed to Write", got[:4])
	}
	if got, _ := c.PeekObject(addrA, 32); !bytes.Equal(got, a0) {
		t.Fatalf("an object only read changed: %x", got[:4])
	}
}

// TestRewriteLongerThenShorter: a buffered write that shrinks reuses the
// bytes it has, and read-your-writes returns exactly the last value.
func TestRewriteLongerThenShorter(t *testing.T) {
	c, _ := testCluster(t, Options{})
	m := c.Machine(0)
	addr := writeObject(t, c, m, make([]byte, 32))
	tx := m.Begin(0)
	txRead(t, c, tx, addr, 32)
	tx.Write(addr, []byte("short"))
	tx.Write(addr, []byte("a much longer buffered value"))
	tx.Write(addr, []byte("tiny"))
	if got := txRead(t, c, tx, addr, 32); string(got) != "tiny" {
		t.Fatalf("read-your-writes returned %q, want %q", got, "tiny")
	}
	tx.Write(addr, []byte("grown again, past the first"))
	if got := txRead(t, c, tx, addr, 32); string(got) != "grown again, past the first" {
		t.Fatalf("read-your-writes returned %q", got)
	}
	if tx.WriteSetSize() != 1 || tx.ReadSetSize() != 1 {
		t.Fatalf("read/write set sizes %d/%d, want 1/1", tx.ReadSetSize(), tx.WriteSetSize())
	}
	tx.Abort()
}

// TestAbortedAllocsAreReleasedOnce: a user Abort and an ErrConflict commit
// both walk the table's write chain and give every allocated slot back to
// its primary's free list exactly once, whether the coordinator is the
// primary or reaches it by message.
func TestAbortedAllocsAreReleasedOnce(t *testing.T) {
	const size = 40
	c, region := testCluster(t, Options{})
	p := c.Machine(c.Machine(0).PrimaryOf(region))
	hint := proto.Addr{Region: region}
	contended := writeObjectIn(t, c, p, region, make([]byte, size))
	free := func() int { return p.replica(region).alloc.FreeCount(size) }
	want := free()

	alloc := func(tx *Tx) {
		done := false
		tx.Alloc(size, make([]byte, size), &hint, func(_ proto.Addr, err error) {
			if err != nil {
				t.Fatalf("alloc: %v", err)
			}
			done = true
		})
		runUntil(t, c, sim.Second, func() bool { return done })
	}
	for _, coord := range []*Machine{p, c.Machine((p.ID + 1) % len(c.Machines))} {
		tx := coord.Begin(0)
		alloc(tx)
		alloc(tx)
		if got := free(); got != want-2 {
			t.Fatalf("coordinator %d: %d free slots with two allocated, want %d", coord.ID, got, want-2)
		}
		tx.Abort()
		c.RunFor(sim.Millisecond)
		if got := free(); got != want {
			t.Fatalf("coordinator %d: %d free slots after Abort, want %d", coord.ID, got, want)
		}

		// Lose a race on `contended`: LOCK fails at the stale version.
		tx = coord.Begin(0)
		d := txRead(t, c, tx, contended, size)
		alloc(tx)
		alloc(tx)
		tx.Write(contended, d)
		winner := p.Begin(1)
		tx2d := txRead(t, c, winner, contended, size)
		winner.Write(contended, tx2d)
		if err := txCommit(t, c, winner); err != nil {
			t.Fatal(err)
		}
		if err := txCommit(t, c, tx); !errors.Is(err, ErrConflict) {
			t.Fatalf("coordinator %d: commit returned %v, want ErrConflict", coord.ID, err)
		}
		c.RunFor(sim.Millisecond)
		if got := free(); got != want {
			t.Fatalf("coordinator %d: %d free slots after a conflict abort, want %d", coord.ID, got, want)
		}
	}
}
