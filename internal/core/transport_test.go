package core

import (
	"testing"

	"farm/internal/proto"
	"farm/internal/sim"
)

// TestRegistryCompleteness asserts every message type the system can put
// on the wire has a registered handler: the proto package's public
// vocabulary (the CM's call requests included) and core's internal control
// messages and calls. A type added to the protocol without a registration fails
// here rather than being silently dropped at runtime.
func TestRegistryCompleteness(t *testing.T) {
	c := New(Options{NumMachines: 2, Seed: 1})
	m := c.Machine(0)

	for _, msg := range proto.WireMessages() {
		if !m.tp.reg.Handles(msg) {
			t.Errorf("no handler registered for %T", msg)
		}
	}
	internal := []interface{}{
		&allocSlotReq{}, &rpcReply{}, &releaseSlotReq{},
		&suspectReport{}, &reconfigAsk{}, &regionActiveAnnounce{},
		&joinReq{},
		&clientReadReq{}, &clientUpdateReq{}, &appCall{},
	}
	for _, msg := range internal {
		if !m.tp.reg.Handles(msg) {
			t.Errorf("no handler registered for internal type %T", msg)
		}
	}
	// Send-only types must still be registered (for wire-size accounting)
	// even though machines never receive them.
	if m.tp.reg.Lookup(&clientResp{}) == nil {
		t.Error("clientResp not registered for send-side accounting")
	}
}

// TestUnknownMessageCounted asserts an unregistered type arriving at a
// machine is counted under "msg unknown" instead of vanishing. A member's
// transport would not send one (TestUnknownMessageDroppedAtSend), so it
// comes bare from an outsider's NIC, the way external clients' requests do.
func TestUnknownMessageCounted(t *testing.T) {
	type bogusMsg struct{ X int }
	c := New(Options{NumMachines: 2, Seed: 1})
	c.NewClient().nic.Send(1, &bogusMsg{X: 42})
	c.RunFor(sim.Millisecond)
	if n := c.Counters.Get("msg unknown"); n != 1 {
		t.Fatalf("msg unknown = %d, want 1", n)
	}
}

// TestUnknownMessageDroppedAtSend is the regression test for the
// enqueue nil-handler ordering: an unregistered message type must hit the
// msg-unknown drop path at the send side — counted, never transmitted,
// never panicking — also when it is the first message the machine ever
// sends (the path that once touched the handler before the nil guard).
func TestUnknownMessageDroppedAtSend(t *testing.T) {
	type bogusMsg struct{ X int }
	c := New(Options{NumMachines: 2, Seed: 1})
	c.Machine(0).send(1, &bogusMsg{X: 1})
	c.RunFor(sim.Millisecond)
	if n := c.Counters.Get("msg unknown"); n != 1 {
		t.Fatalf("msg unknown = %d, want 1", n)
	}
	// Protocol traffic keeps flowing, so compare against a twin run that
	// never sends the bogus message: the wire send counts must match
	// exactly — the unknown type contributed zero fabric sends.
	c2 := New(Options{NumMachines: 2, Seed: 1})
	c2.RunFor(sim.Millisecond)
	if sent, sent2 := c.Net.Counters.Get("msg_send"), c2.Net.Counters.Get("msg_send"); sent != sent2 {
		t.Fatalf("unknown message reached the wire (%d vs %d sends)", sent, sent2)
	}
}

// TestEveryMessageArrivesOnceInItsOwnFrame sends a burst of application
// calls to one destination and asserts every request reaches the handler
// exactly once, every answer reaches its caller exactly once, and the burst
// cost exactly one fabric frame per message, request or answer: nothing is
// held back to share a frame, nothing is sent twice. Arrival order is not
// asserted — the transport promises none (receive dispatch picks the
// least-loaded worker).
func TestEveryMessageArrivesOnceInItsOwnFrame(t *testing.T) {
	const n = 24
	run := func(burst int) (seen, answered []int, frames, msgs uint64) {
		c := New(Options{NumMachines: 2, Seed: 5})
		seen, answered = make([]int, burst), make([]int, burst)
		c.Machine(1).SetAppHandler(func(_ int, req interface{}, call AppCall) {
			seen[req.(int)]++
			call.Reply(req)
		})
		c.RunFor(sim.Millisecond) // settle boot traffic
		for i := 0; i < burst; i++ {
			c.Machine(0).CallApp(1, i, func(resp interface{}, err error) {
				if err != nil {
					t.Errorf("call %d: %v", i, err)
					return
				}
				answered[resp.(int)]++
			})
		}
		c.RunFor(sim.Millisecond)
		return seen, answered, c.Net.Counters.Get("msg_send"), c.Net.Counters.Get("msg_send_coalesced")
	}
	seen, answered, frames, msgs := run(n)
	// The twin run sends no burst: whatever the cluster sends on its own
	// in the same two milliseconds cancels out.
	_, _, idleFrames, idleMsgs := run(0)
	for i := range seen {
		if seen[i] != 1 || answered[i] != 1 {
			t.Errorf("call %d delivered %d times and answered %d times, want once each", i, seen[i], answered[i])
		}
	}
	if got := frames - idleFrames; got != 2*n {
		t.Errorf("%d messages left in %d fabric frames, want one frame each", 2*n, got)
	}
	if got := msgs - idleMsgs; got != 2*n {
		t.Errorf("frames carried %d messages, want %d", got, 2*n)
	}
}

// TestOneMessagePerFrameAccounting runs a fault-free bank-style transfer
// workload and pins the transport's accounting: every message travelled
// alone in its frame (msg_send_coalesced, the messages carried in frames,
// equals msg_send, the frames sent), the per-type sent/wire cells and the
// delivery-latency histogram are populated, and no message was dropped
// for lack of a handler.
func TestOneMessagePerFrameAccounting(t *testing.T) {
	const (
		accounts = 16
		target   = 250
		drivers  = 4
	)
	c := New(Options{NumMachines: 6, Seed: 3})
	if _, err := c.CreateRegions(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	addrs := make([]proto.Addr, accounts)
	for i := range addrs {
		addrs[i] = writeObject(t, c, c.Machine(1+i%3), []byte{byte(i), 0, 0, 0, 0, 0, 0, 0})
	}
	c.RunFor(5 * sim.Millisecond)
	committedBefore := c.TotalCommitted()

	for _, mm := range c.Machines {
		m := mm
		for d := 0; d < drivers; d++ {
			dd := d
			var loop func(i int)
			loop = func(i int) {
				if !m.Alive() || c.TotalCommitted()-committedBefore >= target {
					return
				}
				a := addrs[(i*7+dd+m.ID)%accounts]
				b := addrs[(i*11+dd*3+m.ID*5+1)%accounts]
				if a == b {
					loop(i + 1)
					return
				}
				tx := m.Begin(dd % m.Threads())
				tx.Read(a, 8, func(av []byte, err error) {
					if err != nil {
						c.Eng.After(50*sim.Microsecond, func() { loop(i + 1) })
						return
					}
					tx.Read(b, 8, func(bv []byte, err error) {
						if err != nil {
							c.Eng.After(50*sim.Microsecond, func() { loop(i + 1) })
							return
						}
						av[0]++
						bv[0]--
						tx.Write(a, av)
						tx.Write(b, bv)
						tx.Commit(func(error) { loop(i + 1) })
					})
				})
			}
			loop(m.ID * 17)
		}
	}
	runUntil(t, c, 5*sim.Second, func() bool {
		return c.TotalCommitted()-committedBefore >= target
	})

	frames, msgs := c.Net.Counters.Get("msg_send"), c.Net.Counters.Get("msg_send_coalesced")
	if frames == 0 || msgs != frames {
		t.Errorf("%d messages in %d frames, want exactly one message per frame", msgs, frames)
	}
	if h := c.MsgLatency.Get("LOCK-REPLY"); h == nil || h.Count() == 0 {
		t.Error("no delivery-latency stats recorded for LOCK-REPLY")
	}
	if c.Counters.Get("sent LOCK-REPLY") == 0 || c.Counters.Get("wire LOCK-REPLY") == 0 {
		t.Error("per-type sent/wire counters not populated")
	}
	if n := c.Counters.Get("msg unknown"); n != 0 {
		t.Errorf("%d messages dropped with no registered handler", n)
	}
}
