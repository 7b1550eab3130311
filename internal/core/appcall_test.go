package core

import (
	"slices"
	"testing"

	"farm/internal/fabric"
	"farm/internal/sim"
)

// appReq is a request its caller pools: Reclaim counts its return.
type appReq struct {
	v         int
	reclaimed *int
}

func (r *appReq) Reclaim() { *r.reclaimed++ }

// TestDuplicatedAppCall: every frame between a caller and the callee
// arrives twice, so each call reaches the application handler twice and
// each of its answers reaches the caller twice. The caller's appCall, and
// the request it carries, go back to the pool only once both copies were
// delivered and both handler runs returned; the caller reuses the call at
// once for another request. The callee's RPC-REPLY goes back to its pool
// only once both copies were delivered. Each handler run sees the request
// its call carried, and each call is answered once, with its own answer.
func TestDuplicatedAppCall(t *testing.T) {
	c := New(Options{NumMachines: 5, Seed: 19})
	caller, callee := c.Machine(1), c.Machine(2)
	var seen []int
	handled := 0
	callee.SetAppHandler(func(_ int, req interface{}, call AppCall) {
		seen = append(seen, req.(*appReq).v)
		call.Reply(req.(*appReq).v + 1)
		handled++
	})
	c.RunFor(20 * sim.Millisecond)
	for _, l := range [][2]int{{caller.ID, callee.ID}, {callee.ID, caller.ID}} {
		c.Net.SetLinkFault(fabric.MachineID(l[0]), fabric.MachineID(l[1]),
			fabric.LinkFault{Delay: sim.Fixed(20 * sim.Microsecond), DupProb: 1})
	}
	apps := func() uint64 { return c.Counters.Get("msg APP") }
	replies := func() uint64 { return c.Counters.Get("msg RPC-REPLY") }
	appBase, replyBase := apps(), replies()
	freeCalls, freeReplies := len(caller.appFree), len(callee.replyFree)

	reclaimed := 0
	var answers []interface{}
	call := func(v int) {
		caller.CallApp(callee.ID, &appReq{v: v, reclaimed: &reclaimed}, func(resp interface{}, err error) {
			if err != nil {
				t.Fatalf("call %d: %v", v, err)
			}
			answers = append(answers, resp)
		})
	}
	call(1)
	reused, repliesBack := false, 0
	for len(answers) < 2 && c.Eng.Step() {
		if !reused && len(caller.appFree) > freeCalls {
			reused = true
			if n := apps() - appBase; n != 2 || handled != 2 || reclaimed != 1 {
				t.Fatalf("the appCall came back after %d deliveries, %d handler runs and %d request reclaims, want 2, 2, 1", n, handled, reclaimed)
			}
			call(2) // takes the call just reclaimed
		}
		if k := len(callee.replyFree) - freeReplies; k > repliesBack {
			repliesBack = k
			if n := replies() - replyBase; n < uint64(2*k) {
				t.Fatalf("%d RPC-REPLYs back in the pool after %d deliveries, want both copies of each delivered", k, n)
			}
		}
	}
	c.RunFor(sim.Millisecond)
	if !reused || repliesBack == 0 {
		t.Fatalf("appCall reused %v, %d RPC-REPLYs back in the pool: nothing tested", reused, repliesBack)
	}
	if !slices.Equal(seen, []int{1, 1, 2, 2}) {
		t.Fatalf("the handler saw requests %v, want [1 1 2 2]", seen)
	}
	if !slices.Equal(answers, []interface{}{2, 3}) {
		t.Fatalf("the calls were answered %v, want [2 3]", answers)
	}
	if n := replies() - replyBase; n != 8 || len(caller.calls) != 0 || reclaimed != 2 {
		t.Fatalf("%d RPC-REPLYs delivered, %d calls open, %d requests reclaimed; want 8, 0, 2", n, len(caller.calls), reclaimed)
	}
}
