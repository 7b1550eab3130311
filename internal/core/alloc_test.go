package core_test

import (
	"testing"

	"farm/internal/bank"
	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/proto"
	"farm/internal/sim"
)

// Allocation budgets for the hot paths every transaction takes through core
// (ISSUE 14: commit records and read scheduling; ISSUE 16: the execute
// phase). The simulation is single-goroutine and seed-deterministic, so
// testing.AllocsPerRun counts are exact; each bound leaves about 10 %
// head-room, so a regression fails here rather than in a later benchmark
// run.

// localObjects boots a 9-machine cluster and allocates n objects of size
// bytes in one region; it returns them with the region's primary, so reads
// and validations issued from that machine are local.
func localObjects(t *testing.T, n, size int) (*core.Cluster, *core.Machine, []proto.Addr) {
	t.Helper()
	c := core.New(core.Options{NumMachines: 9, Seed: 7})
	regions, err := c.CreateRegions(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Machine(c.Machine(0).PrimaryOf(regions[0]))
	addrs := make([]proto.Addr, n)
	hint := proto.Addr{Region: regions[0]}
	for i := range addrs {
		err = loadgen.RunSync(c, m, 0, func(tx *core.Tx, done func(error)) {
			tx.Alloc(size, make([]byte, size), &hint, func(a proto.Addr, err error) { addrs[i] = a; done(err) })
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return c, m, addrs
}

// readAll reads addrs one after the other within tx and runs the
// simulation until the last read is delivered. next is the chain's one
// callback, made by the caller so that it is not counted per run.
type readAll struct {
	t     *testing.T
	c     *core.Cluster
	tx    *core.Tx
	addrs []proto.Addr
	size  int
	i     int
	next  func([]byte, error)
}

func newReadAll(t *testing.T, c *core.Cluster, addrs []proto.Addr, size int) *readAll {
	r := &readAll{t: t, c: c, addrs: addrs, size: size}
	r.next = func(data []byte, err error) {
		if err != nil || len(data) != r.size {
			r.t.Fatalf("read %d: %d bytes, %v", r.i, len(data), err)
		}
		if r.i++; r.i < len(r.addrs) {
			r.tx.Read(r.addrs[r.i], r.size, r.next)
		}
	}
	return r
}

func (r *readAll) run(tx *core.Tx) {
	r.tx, r.i = tx, 0
	tx.Read(r.addrs[0], r.size, r.next)
	for r.i < len(r.addrs) && r.c.Eng.Step() {
	}
}

// TestBeginAbortAllocatesNothing: Begin takes the Tx, with its read/write
// table, from its machine's pool and Abort puts it back.
func TestBeginAbortAllocatesNothing(t *testing.T) {
	c := core.New(core.Options{NumMachines: 9, Seed: 7})
	m := c.Machine(0)
	m.Begin(0).Abort() // fill the pool, resolve the abort counter
	if n := testing.AllocsPerRun(200, func() { m.Begin(0).Abort() }); n != 0 {
		t.Fatalf("Begin+Abort: %v allocs, want 0", n)
	}
}

// TestFreshReadAllocationBudget: a first read of a local object copies the
// payload twice — region to the read set's private copy, that to the
// caller's — into the transaction's slab, and joins the table; the Tx comes
// from its machine's pool with the chunks, the grown table and the index an
// earlier transaction made, so a read allocates nothing. It cost 3.38 while
// it made a header+payload bounce buffer, a read-set entry, the caller's
// copy and map growth, and 0.44 (seven allocations over a 16-read
// transaction) while every Tx made its own chunks, table and index.
func TestFreshReadAllocationBudget(t *testing.T) {
	const reads, size = 16, 64
	c, m, addrs := localObjects(t, reads, size)
	r := newReadAll(t, c, addrs, size)
	run := func(read bool) float64 {
		return testing.AllocsPerRun(200, func() {
			tx := m.Begin(0)
			if read {
				r.run(tx)
			}
			tx.Abort()
		})
	}
	run(true) // warm the pools and counters
	base, withReads := run(false), run(true)
	n := (withReads - base) / reads
	t.Logf("fresh local Tx.Read: %.2f allocs amortised over %d reads", n, reads)
	if n > 0 {
		t.Fatalf("fresh local Tx.Read: %v allocs amortised over %d reads (Begin+Abort alone: %v), want <= 0.5", n, reads, base)
	}
}

// TestLockFreeReadAllocationBudget: a lock-free read lands in its pooled
// op's own buffer, from region memory or through one verb, and its handler
// is given that buffer, valid until it returns: a read allocates nothing,
// local or remote (one buffer per read, the caller's to keep, before), and
// neither does the lease traffic the cluster runs meanwhile (an idle
// stretch of the same virtual length had to be measured and taken off while
// it allocated).
func TestLockFreeReadAllocationBudget(t *testing.T) {
	const reads, size = 16, 64
	c, prim, addrs := localObjects(t, reads, size)
	remote := c.Machine((prim.ID + 1) % len(c.Machines))
	for _, m := range []*core.Machine{prim, remote} {
		i := 0
		var next func([]byte, error)
		next = func(data []byte, err error) {
			if err != nil || len(data) != size {
				t.Fatalf("read %d: %d bytes, %v", i, len(data), err)
			}
			if i++; i < reads {
				m.LockFreeRead(0, addrs[i], size, next)
			}
		}
		run := func() {
			i = 0
			m.LockFreeRead(0, addrs[0], size, next)
			for i < reads && c.Eng.Step() {
			}
		}
		run() // warm the pools
		n := testing.AllocsPerRun(100, run) / reads
		where := "local"
		if m != prim {
			where = "remote"
		}
		t.Logf("%s LockFreeRead: %.2f allocs", where, n)
		if n > 0 {
			t.Errorf("%s LockFreeRead: %v allocs, want 0", where, n)
		}
	}
}

// TestLocalValidationAllocationBudget: the commit of a read-only transaction
// whose eight objects are all local validates them through pooled ops, the
// set sorted in the machine's scratch, and allocates nothing (14 allocations
// before ISSUE 16, a closure per object among them; 1, the set, while every
// commit made its own).
func TestLocalValidationAllocationBudget(t *testing.T) {
	const reads, size = 8, 64
	c, m, addrs := localObjects(t, reads, size)
	r := newReadAll(t, c, addrs, size)
	finished := false
	onCommit := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		finished = true
	}
	run := func(commit bool) float64 {
		return testing.AllocsPerRun(200, func() {
			tx := m.Begin(0)
			r.run(tx)
			if !commit {
				tx.Abort()
				return
			}
			finished = false
			tx.Commit(onCommit)
			for !finished && c.Eng.Step() {
			}
		})
	}
	run(true)
	base, withCommit := run(false), run(true)
	t.Logf("local validation of %d objects: %.1f allocs", reads, withCommit-base)
	if n := withCommit - base; n > 0 {
		t.Fatalf("read-only commit validating %d local objects: %v allocs more than Abort, want 0", reads, n)
	}
}

// TestBankTransferAllocationBudget: one two-account transfer on a
// 9-machine, 3-way-replicated cluster — two reads, LOCK, COMMIT-BACKUP and
// COMMIT-PRIMARY records to every replica, their polling, application and
// truncation, plus whatever lease traffic falls in the window — end to end.
// It cost about 225 allocations before ISSUE 14, 99 after it, 85 after
// ISSUE 16, 42 once participants pooled their log records and entries from
// decode to truncation, 16 once they processed records in place in the ring
// and one-sided reads landed in the reader's buffer, 8 once the
// coordinator's commit state, the LOCK-REPLY and the transfer itself were
// pooled, and measures 6 since the Tx and its chunks are. (The benchmark's bank_lowload reads fewer: with 18 clients most
// truncations piggyback on the next record, while this lone client's all go
// out as explicit TRUNCATE records.)
func TestBankTransferAllocationBudget(t *testing.T) {
	c := core.New(core.Options{NumMachines: 9, Seed: 1})
	w, err := bank.Setup(c, 512, 6, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(3)
	committed := 0
	done := func(ok bool) {
		if ok {
			committed++
		}
	}
	one := func() {
		w.Transfer(c.Machine(committed%9), 0, rng, done)
		c.RunFor(150 * sim.Microsecond)
	}
	for i := 0; i < 500; i++ { // steady state: pools filled, rings wrapped
		one()
	}
	before := committed
	const runs = 300
	n := testing.AllocsPerRun(runs, one)
	if committed-before < runs*9/10 {
		t.Fatalf("only %d of %d transfers committed", committed-before, runs)
	}
	t.Logf("bank transfer: %.1f allocs end to end", n)
	const budget = 6 * 1.1
	if n > budget {
		t.Fatalf("bank transfer: %v allocs end to end, want <= %.1f", n, budget)
	}
}

// TestRemoteParticipantAllocationBudget: an update of one object from a
// machine holding no replica of it, so that every record is a remote
// participant's to decode — a LOCK at the primary, COMMIT-BACKUP at two
// backups, COMMIT-PRIMARY, an explicit TRUNCATE everywhere — end to end, per
// committed transaction. The participants' records, their entries and the
// entries' frame lists are pooled from decode to truncation, and the records
// are processed in place in the ring, and the coordinator's commit state and
// the LOCK-REPLY are pooled: the update measured 60 before the participants'
// state was pooled, 35 while the ring copied each frame's payload, 19 while
// every commit made its coordinator state and the primary a LOCK-REPLY, 14
// while every transaction made its own Tx and slab chunk, and measures 12.
func TestRemoteParticipantAllocationBudget(t *testing.T) {
	c := core.New(core.Options{NumMachines: 9, Seed: 7})
	regions, err := c.CreateRegions(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var m *core.Machine
	for _, cand := range c.Machines {
		if len(cand.HostedRegions()) == 0 {
			m = cand
			break
		}
	}
	if m == nil {
		t.Fatal("every machine holds a replica")
	}
	var addr proto.Addr
	hint := proto.Addr{Region: regions[0]}
	if err := loadgen.RunSync(c, m, 0, func(tx *core.Tx, done func(error)) {
		tx.Alloc(8, make([]byte, 8), &hint, func(a proto.Addr, err error) { addr = a; done(err) })
	}); err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 8)
	committed := 0
	onCommit := func(err error) {
		if err == nil {
			committed++
		}
	}
	var tx *core.Tx
	onRead := func(_ []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(addr, val)
		tx.Commit(onCommit)
	}
	one := func() {
		tx = m.Begin(committed % m.Threads())
		tx.Read(addr, 8, onRead)
		c.RunFor(300 * sim.Microsecond) // past the truncation flush
	}
	for i := 0; i < 500; i++ { // steady state: pools filled, rings wrapped
		one()
	}
	before := committed
	const runs = 300
	n := testing.AllocsPerRun(runs, one)
	if committed-before != runs+1 {
		t.Fatalf("%d of %d updates committed", committed-before, runs+1)
	}
	t.Logf("remote-participant update: %.1f allocs end to end", n)
	const budget = 12 * 1.1
	if n > budget {
		t.Fatalf("remote-participant update: %v allocs end to end, want <= %.1f", n, budget)
	}
}

// TestLocalPrimaryCommitAllocationBudget: an update of one object from the
// machine that is its primary — a local read, LOCK and COMMIT-PRIMARY
// appended to the self log, the LOCK verdict handed to the coordinator's
// thread in a pooled carrier, COMMIT-BACKUP to two backups, truncation — end
// to end. It measured 60 while the verdict was a LOCK-REPLY message the
// machine sent to itself and 59 once the hand-off allocated nothing in its
// place, 33 once participants pooled their log records and entries, 18 once
// they processed records in place in the ring, 14 once the coordinator's
// commit state was pooled, and measures 12 since the Tx and its chunks are.
// (No head-room: the run is deterministic, and one closure per hand-off
// would read 13.)
func TestLocalPrimaryCommitAllocationBudget(t *testing.T) {
	c, m, addrs := localObjects(t, 1, 8)
	val := make([]byte, 8)
	committed := 0
	onCommit := func(err error) {
		if err == nil {
			committed++
		}
	}
	var tx *core.Tx
	onRead := func(_ []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(addrs[0], val)
		tx.Commit(onCommit)
	}
	one := func() {
		tx = m.Begin(committed % m.Threads())
		tx.Read(addrs[0], 8, onRead)
		c.RunFor(300 * sim.Microsecond) // past the truncation flush
	}
	for i := 0; i < 500; i++ { // steady state: pools filled, rings wrapped
		one()
	}
	before := committed
	const runs = 300
	n := testing.AllocsPerRun(runs, one)
	if committed-before != runs+1 {
		t.Fatalf("%d of %d updates committed", committed-before, runs+1)
	}
	t.Logf("local-primary update: %.1f allocs end to end", n)
	if n > 12 {
		t.Fatalf("local-primary update: %v allocs end to end, want <= 12", n)
	}
}

// TestNoLogSpaceCommitAllocationBudget: an update of one object from its
// primary whose own log has no room for the commit's reservations is
// refused with ErrNoSpace — most of tatp_scale100's aborts — before any
// record is written, and the refusal, reported through the Tx's bound
// report, allocates nothing. It cost 1 while each refusal scheduled a
// closure of its own.
func TestNoLogSpaceCommitAllocationBudget(t *testing.T) {
	c, m, addrs := localObjects(t, 1, 8)
	release := m.HoldLog(m.ID)
	defer release()
	val := make([]byte, 8)
	var tx *core.Tx
	var result error
	finished := false
	onCommit := func(err error) { result, finished = err, true }
	onRead := func(_ []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(addrs[0], val)
		tx.Commit(onCommit)
	}
	one := func() {
		finished = false
		tx = m.Begin(0)
		tx.Read(addrs[0], 8, onRead)
		for !finished && c.Eng.Step() {
		}
		if result != core.ErrNoSpace {
			t.Fatalf("commit with the log held: %v, want ErrNoSpace", result)
		}
	}
	one() // warm the pools and counters
	n := testing.AllocsPerRun(200, one)
	t.Logf("commit refused for log space: %.1f allocs", n)
	if n > 0 {
		t.Fatalf("commit refused for log space: %v allocs, want 0", n)
	}
}

// TestTransferAllocationBudget: on a warmed 9-machine cluster, a committed
// bank transfer whose coordinator holds no replica of either account — two
// one-sided reads, a LOCK record at each primary, COMMIT-BACKUP at their
// backups, COMMIT-PRIMARY, the truncation riding the next transfer's
// records, plus the events the cluster runs meanwhile — costs 1
// allocation per committed transaction. It cost 21 while every polled frame
// was copied out of the ring, every one-sided read made its own buffer and
// every commit its own validation set, 11 while every commit made its
// coordinator state, each primary a LOCK-REPLY and the transfer its
// closures, and 3 while every transaction made its own Tx and slab chunk.
// (No head-room: the run is deterministic.)
func TestTransferAllocationBudget(t *testing.T) {
	c := core.New(core.Options{NumMachines: 9, Seed: 1})
	w, err := bank.Setup(c, 512, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var m *core.Machine
	for _, cand := range c.Machines {
		if len(cand.HostedRegions()) == 0 {
			m = cand
			break
		}
	}
	if m == nil {
		t.Fatal("every machine holds a replica")
	}
	rng := sim.NewRand(3)
	finished, committed := false, false
	done := func(ok bool) { finished, committed = true, ok }
	one := func() {
		finished = false
		w.Transfer(m, 0, rng, done)
		for !finished && c.Eng.Step() {
		}
		if !committed {
			t.Fatal("a transfer on an idle cluster did not commit")
		}
	}
	for i := 0; i < 200; i++ {
		one() // warm the pools and wrap the rings
	}
	per := testing.AllocsPerRun(200, one)
	t.Logf("transfer: %.1f allocs per committed transaction", per)
	if per > 1 {
		t.Errorf("transfer: %.1f allocs per committed transaction, want <= 1", per)
	}
}
