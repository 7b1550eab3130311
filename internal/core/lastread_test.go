package core

import (
	"errors"
	"testing"

	"farm/internal/fabric"
	"farm/internal/proto"
	"farm/internal/sim"
)

// The tests below hold read-only commits to the rule of commitReadOnly: a
// read-only transaction serializes at its last read, so that read is not
// validated when it ran alone, and every other read still is.

// commitBoth commits, from m, a transaction that reads a and b and writes
// va and vb to them.
func commitBoth(t *testing.T, c *Cluster, m *Machine, a, b proto.Addr, va, vb []byte) {
	t.Helper()
	tx := m.Begin(2)
	txRead(t, c, tx, a, len(va))
	txRead(t, c, tx, b, len(vb))
	tx.Write(a, va)
	tx.Write(b, vb)
	if err := txCommit(t, c, tx); err != nil {
		t.Fatalf("writer: %v", err)
	}
}

// TestReadOnlyCommitDoesNotValidateItsLastRead: three remote objects read
// one after another cost three reads to execute and two to validate; one
// read commits with no validation at all; a read-write transaction over the
// same three reads validates all of them.
func TestReadOnlyCommitDoesNotValidateItsLastRead(t *testing.T) {
	c, region := testCluster(t, Options{})
	prim, coord := primaryAndOutsider(t, c, region)
	var addrs []proto.Addr
	for _, v := range []string{"aaaaaaaa", "bbbbbbbb", "cccccccc"} {
		addrs = append(addrs, writeObjectIn(t, c, prim, region, []byte(v)))
	}
	c.RunFor(20 * sim.Millisecond)

	// run reads the first n objects one after another on coord, allocates
	// one more object if write is set, commits, and returns the one-sided
	// reads, validation header reads and skipped validations it cost.
	run := func(n int, write bool) (reads, validated, skipped uint64) {
		t.Helper()
		r0, v0, s0 := c.Net.Counters.Get("rdma_read"), c.Counters.Get("validate_reads"), c.Counters.Get("validate_skipped")
		tx := coord.Begin(1)
		for _, a := range addrs[:n] {
			txRead(t, c, tx, a, 8)
		}
		if write {
			hint := proto.Addr{Region: region}
			allocated := false
			tx.Alloc(8, []byte("dddddddd"), &hint, func(_ proto.Addr, err error) {
				if err != nil {
					t.Fatalf("alloc: %v", err)
				}
				allocated = true
			})
			runUntil(t, c, sim.Second, func() bool { return allocated })
		}
		if err := txCommit(t, c, tx); err != nil {
			t.Fatalf("commit of %d reads (write %v): %v", n, write, err)
		}
		return c.Net.Counters.Get("rdma_read") - r0, c.Counters.Get("validate_reads") - v0,
			c.Counters.Get("validate_skipped") - s0
	}

	if r, v, s := run(3, false); r != 3+2 || v != 2 || s != 1 {
		t.Errorf("read-only, three reads: %d one-sided reads, %d validated, %d skipped; want 3+2, 2, 1", r, v, s)
	}
	if r, v, s := run(1, false); r != 1 || v != 0 || s != 1 {
		t.Errorf("read-only, one read: %d one-sided reads, %d validated, %d skipped; want 1, 0, 1", r, v, s)
	}
	if r, v, s := run(3, true); r != 3+3 || v != 3 || s != 0 {
		t.Errorf("read-write, three reads: %d one-sided reads, %d validated, %d skipped; want 3+3, 3, 0", r, v, s)
	}
}

// TestEarlierStaleReadStillAborts: a read-only transaction reads A, a writer
// commits new values of A and B, and the transaction reads the new B. Its
// last read is current, but A is not: the commit must abort.
func TestEarlierStaleReadStillAborts(t *testing.T) {
	c, region := testCluster(t, Options{})
	prim, coord := primaryAndOutsider(t, c, region)
	a := writeObjectIn(t, c, prim, region, []byte("AAAA"))
	b := writeObjectIn(t, c, prim, region, []byte("BBBB"))
	c.RunFor(20 * sim.Millisecond)

	tx := coord.Begin(1)
	if got := txRead(t, c, tx, a, 4); string(got) != "AAAA" {
		t.Fatalf("A = %q", got)
	}
	commitBoth(t, c, prim, a, b, []byte("aaaa"), []byte("bbbb"))
	if got := txRead(t, c, tx, b, 4); string(got) != "bbbb" {
		t.Fatalf("B = %q, want the writer's", got)
	}
	if err := txCommit(t, c, tx); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit over a stale first read: %v, want %v", err, ErrConflict)
	}
}

// TestOverlappingReadsAreAllValidated: A and B are read together, from two
// primaries. Link delays make A execute first and complete last, and a
// writer commits new values of both between the two executions, so A is
// stale and B current although B was delivered first. The read delivered
// last is not the read executed last: both must be validated, and the
// commit must abort.
func TestOverlappingReadsAreAllValidated(t *testing.T) {
	c := New(Options{NumMachines: 5, Seed: 7})
	regions, err := c.CreateRegions(0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	pA, pB := c.Machine(0).PrimaryOf(regions[0]), c.Machine(0).PrimaryOf(regions[1])
	if pA == pB {
		t.Fatalf("both regions have primary m%d", pA)
	}
	var others []*Machine
	for _, m := range c.Machines {
		if m.ID != pA && m.ID != pB {
			others = append(others, m)
		}
	}
	coord, writer := others[0], others[1]
	a := writeObjectIn(t, c, c.Machine(pA), regions[0], []byte("AAAA"))
	b := writeObjectIn(t, c, c.Machine(pB), regions[1], []byte("BBBB"))
	c.RunFor(20 * sim.Millisecond)

	// A's request is fast and its completion slow; B's request is slow.
	c.Net.SetLinkFault(fabric.MachineID(pA), fabric.MachineID(coord.ID), fabric.LinkFault{Delay: sim.Fixed(600 * sim.Microsecond)})
	c.Net.SetLinkFault(fabric.MachineID(coord.ID), fabric.MachineID(pB), fabric.LinkFault{Delay: sim.Fixed(300 * sim.Microsecond)})

	tx := coord.Begin(1)
	var gotA, gotB []byte
	var order []string
	tx.Read(a, 4, func(data []byte, err error) {
		if err != nil {
			t.Fatalf("read A: %v", err)
		}
		gotA, order = data, append(order, "A")
	})
	tx.Read(b, 4, func(data []byte, err error) {
		if err != nil {
			t.Fatalf("read B: %v", err)
		}
		gotB, order = data, append(order, "B")
	})
	c.RunFor(20 * sim.Microsecond) // A has executed, B has not
	commitBoth(t, c, writer, a, b, []byte("aaaa"), []byte("bbbb"))
	runUntil(t, c, sim.Second, func() bool { return len(order) == 2 })
	if string(gotA) != "AAAA" || string(gotB) != "bbbb" || order[0] != "B" {
		t.Fatalf("read A = %q, B = %q, delivered %v: want the old A, the new B, B first", gotA, gotB, order)
	}

	v0 := c.Counters.Get("validate_reads")
	if err := txCommit(t, c, tx); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit over overlapping reads: %v, want %v", err, ErrConflict)
	}
	if v := c.Counters.Get("validate_reads") - v0; v != 2 {
		t.Fatalf("%d validation reads, want 2", v)
	}
}

// TestReadOnlyValidationRPCToDeadPrimaryReports: a read-only commit
// validating over RPC at a primary that has just died gets no reply. The
// stall sweep must fail it rather than leave it waiting forever.
func TestReadOnlyValidationRPCToDeadPrimaryReports(t *testing.T) {
	c := New(Options{NumMachines: 5, Seed: 19})
	region := regionWithPrimaryNotIn(t, c, 0, 1, 2, 3)
	prim := c.Machine(4)
	var addrs []proto.Addr
	for i := 0; i < 8; i++ {
		addrs = append(addrs, writeObjectIn(t, c, prim, region, []byte("objectxx")))
	}
	c.RunFor(20 * sim.Millisecond)

	m := c.Machine(1)
	tx := m.Begin(0)
	for _, a := range addrs[:7] {
		txRead(t, c, tx, a, 8)
	}
	c.Kill(prim.ID)
	var commitErr error
	done := false
	tx.Commit(func(err error) { commitErr, done = err, true })
	if len(m.calls) != 1 {
		t.Fatalf("%d calls pending, want one VALIDATE (more than tr objects at one primary)", len(m.calls))
	}
	runUntil(t, c, 500*sim.Millisecond, func() bool { return done })
	if commitErr == nil {
		t.Fatal("a read-only commit whose validation got no reply reported success")
	}
	if n := c.Counters.Get("tx_ro_validate_stalled"); n != 1 {
		t.Fatalf("tx_ro_validate_stalled = %d, want 1", n)
	}
	if len(m.calls) != 0 {
		t.Fatalf("%d calls left", len(m.calls))
	}
}

// TestAllocRPCToDeadPrimaryReports: a slot reservation sent to a primary
// that dies before answering gets no reply. The same stall sweep must fail
// it, so that the allocation reports an error instead of never calling back.
func TestAllocRPCToDeadPrimaryReports(t *testing.T) {
	c := New(Options{NumMachines: 5, Seed: 19})
	region := regionWithPrimaryNotIn(t, c, 0, 1, 2, 3)
	c.RunFor(20 * sim.Millisecond)

	m := c.Machine(1)
	tx := m.Begin(0)
	hint := proto.Addr{Region: region}
	var allocErr error
	done := false
	tx.Alloc(8, []byte("objectxx"), &hint, func(_ proto.Addr, err error) { allocErr, done = err, true })
	if len(m.calls) != 1 {
		t.Fatalf("%d calls pending, want one slot reservation", len(m.calls))
	}
	c.Kill(4)
	runUntil(t, c, 500*sim.Millisecond, func() bool { return done })
	if !done || allocErr == nil {
		t.Fatalf("allocation at a dead primary: done %v, err %v; want an error", done, allocErr)
	}
	if n := c.Counters.Get("alloc_slot_stalled"); n != 1 {
		t.Fatalf("alloc_slot_stalled = %d, want 1", n)
	}
	if n := c.Counters.Get("tx_stall_aborted"); n != 0 {
		t.Fatalf("tx_stall_aborted = %d, want 0", n)
	}
	if len(m.calls) != 0 {
		t.Fatalf("%d calls left", len(m.calls))
	}
	tx.Abort()
}

// TestAppCallFailsWhenNoAnswerComes: an application call gets its handler's
// answer; a call its live handler answers only after txStallTimeout fails
// with ErrUnavailable at the stall sweep, and its late answer is dropped; and
// a call to a machine that dies fails as soon as the configuration without
// it arrives, well inside txStallTimeout.
func TestAppCallFailsWhenNoAnswerComes(t *testing.T) {
	c := New(Options{NumMachines: 5, Seed: 19})
	replies := 0 // recovery after the kill sends RPC-REPLYs of its own
	c.Machine(2).SetAppHandler(func(_ int, req interface{}, call AppCall) { replies++; call.Reply(req.(int) + 1) })
	c.Machine(3).SetAppHandler(func(_ int, req interface{}, call AppCall) {
		c.Eng.After(2*txStallTimeout, func() { replies++; call.Reply(req) })
	})
	c.Machine(4).SetAppHandler(func(int, interface{}, AppCall) {})
	c.RunFor(20 * sim.Millisecond)
	m := c.Machine(1)
	dones := 0
	call := func(dst int, kill bool) (resp interface{}, took sim.Time, err error) {
		t.Helper()
		done, start := false, c.Now()
		m.CallApp(dst, 41, func(r interface{}, e error) {
			resp, err, took, done = r, e, c.Now()-start, true
			dones++
		})
		if kill {
			c.Kill(dst)
		}
		runUntil(t, c, sim.Second, func() bool { return done })
		return resp, took, err
	}
	if resp, _, err := call(2, false); err != nil || resp != 42 {
		t.Fatalf("answered call: %v %v, want 42", resp, err)
	}
	if _, took, err := call(3, false); err != ErrUnavailable || took < txStallTimeout {
		t.Fatalf("call answered late: %v after %v, want ErrUnavailable after at least %v", err, took, txStallTimeout)
	}
	if _, took, err := call(4, true); err != ErrUnavailable || took >= txStallTimeout {
		t.Fatalf("call to a dying machine: %v after %v, want ErrUnavailable within %v", err, took, txStallTimeout)
	}
	c.RunFor(2 * txStallTimeout)
	if replies != 2 || dones != 3 {
		t.Fatalf("%d answers sent, %d calls done; want the late answer sent and dropped", replies, dones)
	}
	if n := c.Counters.Get("app_call_stalled"); n != 2 {
		t.Fatalf("app_call_stalled = %d, want 2", n)
	}
	if len(m.calls) != 0 {
		t.Fatalf("%d calls left", len(m.calls))
	}
}
