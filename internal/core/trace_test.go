package core

import (
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
