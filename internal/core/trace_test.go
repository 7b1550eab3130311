package core

import (
	"reflect"
	"testing"

	"farm/internal/proto"
	"farm/internal/sim"
	"farm/internal/trace"
)

// TestTracingDisabledEnqueueAllocsNothing pins the zero-cost contract: with
// tracing off (trb == nil) the transport's steady-state send path performs
// no heap allocations. The engine runs between sends, so each frame and its
// fabric state machine are back in their pools — delivered, dispatched and
// handled — before the next send draws on them.
func TestTracingDisabledEnqueueAllocsNothing(t *testing.T) {
	c := New(Options{NumMachines: 2, Seed: 1})
	m := c.Machine(0)
	if m.trb != nil {
		t.Fatal("tracing unexpectedly enabled")
	}
	// With the lease managers stopped nothing else runs in the window; a
	// LOCK-REPLY for no transaction exercises send, delivery and dispatch
	// and then does nothing.
	for _, mm := range c.Machines {
		mm.lease.stop()
	}
	msg := &proto.LockReply{}
	send := func() {
		m.tp.enqueue(1, msg, trace.Ctx{})
		c.RunFor(20 * sim.Microsecond)
	}
	send() // grow the pools
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("enqueue with tracing disabled allocates %.1f objects per call, want 0", allocs)
	}
	if got := c.Counters.Get("msg LOCK-REPLY"); got < 200 {
		t.Fatalf("only %d LOCK-REPLYs were dispatched: the measurement did not cover delivery", got)
	}
}

// TestTracedMessagesCarryChargedBytes asserts the enqueue path records the
// registry wire-size model's charge as the span attribute of the send
// event — the charged-bytes accounting rides on the trace.
func TestTracedMessagesCarryChargedBytes(t *testing.T) {
	c := New(Options{NumMachines: 2, Seed: 1, Trace: trace.Options{Enabled: true}})
	m := c.Machine(0)
	if m.trb == nil {
		t.Fatal("tracing not wired to the machine")
	}
	ctx := m.trb.Begin("tx", "tx", c.Eng.Now(), 0, 0, 0)
	// clientResp is send-only with a payload-dependent size model, so the
	// receive side is inert and the charge is easy to predict.
	m.tp.enqueue(1, &clientResp{Data: make([]byte, 10)}, ctx)
	c.RunFor(sim.Millisecond)

	want := int64(24 + 10) // CLIENT-RESP's registered size model
	found := false
	for _, r := range c.Tracer.Records() {
		if r.Kind == trace.KindInstant && r.Name == "sent CLIENT-RESP" {
			found = true
			if r.Arg != want {
				t.Fatalf("sent CLIENT-RESP charged %d bytes in trace, want %d", r.Arg, want)
			}
		}
	}
	if !found {
		t.Fatal("no send event recorded for the traced message")
	}
}

// TestEvictionRetiresPendingTruncationsInIDOrder: truncations still pending
// toward a machine when it leaves the configuration retire in ascending id
// order, run after run. Retiring one ends its TRUNCATE span, and a trace
// record's sequence number is assigned when it is pushed, so an order taken
// from a map would reorder the export of a traced run from one replay to the
// next. Six transactions, one per coordinator thread and started in thread
// order, commit and queue their truncations; a backup dies before any carrier
// reaches it; the other participants get theirs from the flush timer; the
// eviction then finds all six pending toward the dead backup alone.
func TestEvictionRetiresPendingTruncationsInIDOrder(t *testing.T) {
	const txs = 6
	run := func() []trace.Record {
		opts := recoveryOpts()
		opts.Trace = trace.Options{Enabled: true}
		opts.TruncateFlushInterval = 2 * sim.Millisecond // no flush before the kill
		c, region := testCluster(t, opts)
		_, coord := primaryAndOutsider(t, c, region)
		victim := -1
		for _, b := range c.Machine(0).mapping(region).Replicas[1:] {
			if !c.Machine(int(b)).IsCM() {
				victim = int(b)
			}
		}
		var addrs [txs]proto.Addr
		for i := range addrs {
			addrs[i] = writeObjectIn(t, c, coord, region, []byte("00000000"))
		}
		c.RunFor(20 * sim.Millisecond) // set-up's own truncations are delivered

		var done [txs]bool
		var errs [txs]error
		for i := range addrs {
			update(t, coord, i, addrs[i], []byte("11111111"), &done[i], &errs[i])
		}
		runUntil(t, c, sim.Second, func() bool {
			for i := range done {
				if !done[i] {
					return false
				}
			}
			return true
		})
		c.Kill(victim)
		runUntil(t, c, sim.Second, func() bool { return !coord.isMember(victim) })

		var ends []trace.Record
		for _, r := range c.Tracer.Records() {
			if r.Machine == coord.ID && r.Kind == trace.KindEnd && r.Name == "TRUNCATE" && r.At == c.Now() {
				ends = append(ends, r)
			}
		}
		return ends
	}
	first := run()
	if len(first) != txs {
		t.Fatalf("%d TRUNCATE spans ended by the eviction, want %d", len(first), txs)
	}
	for i := 1; i < len(first); i++ {
		// Trace ids were handed out in thread order, which is id order.
		if first[i].Trace <= first[i-1].Trace {
			t.Fatalf("TRUNCATE spans ended out of id order: trace %#x after %#x", first[i].Trace, first[i-1].Trace)
		}
	}
	for rep := 1; rep < 20; rep++ {
		if again := run(); !reflect.DeepEqual(again, first) {
			t.Fatalf("repetition %d ended the spans differently:\n%+v\nfirst:\n%+v", rep, again, first)
		}
	}
}
