package core

import (
	"fmt"
	"testing"

	"farm/internal/fabric"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
)

// lockFreeRig writes two adjacent 8-byte objects, "aaaaaaaa" and
// "bbbbbbbb", into a region whose primary is not the CM, and returns them
// with the primary and a machine hosting no replica of the region.
func lockFreeRig(t *testing.T) (c *Cluster, prim, outsider *Machine, a, b proto.Addr) {
	t.Helper()
	c = New(Options{NumMachines: 6, Seed: 23})
	region := regionAvoiding(t, c, nil, []int{int(c.Machine(0).config.CM)})
	prim, outsider = primaryAndOutsider(t, c, region)
	a = writeObjectIn(t, c, prim, region, []byte("aaaaaaaa"))
	b = writeObjectIn(t, c, prim, region, []byte("bbbbbbbb"))
	if b.Off != a.Off+uint32(regionmem.SlotSize(8)) {
		t.Fatalf("objects at %v and %v are not adjacent", a, b)
	}
	return c, prim, outsider, a, b
}

// spanFunc is a SpanHandler that needs every object it read.
type spanFunc func(s Span, err error)

func (f spanFunc) SpanNeeds(s Span) (need, keep uint8) { return 1<<s.N - 1, 0 }
func (f spanFunc) SpanDone(s Span, err error)          { f(s, err) }

// lockFreeReadOf reads a's payload outside any transaction, alone or as the
// first object of a two-object span, and hands it to cb.
func lockFreeReadOf(m *Machine, span bool, a proto.Addr, cb func([]byte)) {
	if !span {
		m.LockFreeRead(0, a, 8, func(data []byte, err error) {
			if err != nil {
				panic(err)
			}
			cb(data)
		})
		return
	}
	m.LockFreeReadSpanTo(0, a, 8, 2, spanFunc(func(s Span, err error) {
		if err != nil {
			panic(err)
		}
		cb(s.Own(0))
	}))
}

// TestLockFreeReadBytesLiveUntilTheHandlerReturns: a lock-free read, local
// or remote, of one object or of a span, hands its handler the read's own
// buffer, and the op holding it goes back to the pool only once the handler
// returned. A read the handler starts therefore lands elsewhere, and the
// bytes stay as read until the handler is done with them; the next read
// issued afterwards lands in a recycled buffer instead of a new one.
func TestLockFreeReadBytesLiveUntilTheHandlerReturns(t *testing.T) {
	for _, remote := range []bool{false, true} {
		for _, span := range []bool{false, true} {
			t.Run(fmt.Sprintf("remote=%v/span=%v", remote, span), func(t *testing.T) {
				c, prim, outsider, a, b := lockFreeRig(t)
				m := prim
				if remote {
					m = outsider
				}
				var kept, inner []byte
				done := false
				lockFreeReadOf(m, span, a, func(data []byte) {
					if string(data) != "aaaaaaaa" {
						t.Fatalf("read %q, want aaaaaaaa", data)
					}
					kept = data
					m.LockFreeRead(0, b, 8, func(data []byte, err error) {
						if err != nil || string(data) != "bbbbbbbb" {
							t.Fatalf("inner read: %q %v", data, err)
						}
						if string(kept) != "aaaaaaaa" {
							t.Fatalf("a read started by the handler landed in its bytes: %q", kept)
						}
						inner, done = data, true
					})
				})
				runUntil(t, c, sim.Millisecond, func() bool { return done })
				var again []byte
				m.LockFreeRead(0, b, 8, func(data []byte, err error) {
					if err != nil || string(data) != "bbbbbbbb" {
						t.Fatalf("later read: %q %v", data, err)
					}
					again = data
				})
				runUntil(t, c, sim.Millisecond, func() bool { return again != nil })
				if &again[0] != &inner[0] {
					t.Fatal("the next read did not land in the buffer the last one handed out")
				}
			})
		}
	}
}

// TestFencedLockFreeReadKeepsItsBuffer: with its lease lapsed, a member
// defers a lock-free read's delivery until the lease is current again. The
// op waits with the report: a read issued after it landed lands in another
// buffer, and the deferred handler sees the bytes its own read fetched.
func TestFencedLockFreeReadKeepsItsBuffer(t *testing.T) {
	for _, span := range []bool{false, true} {
		t.Run(fmt.Sprintf("span=%v", span), func(t *testing.T) {
			c, prim, _, a, b := lockFreeRig(t)
			m := prim
			if m.lease.grantor() < 0 {
				t.Fatal("the primary holds no lease from another machine")
			}
			renewed := m.lease.renewed
			m.lease.renewed = c.Eng.Now() - 2*m.lease.duration
			fenced := c.Counters.Get("report_fenced")
			var first, second string
			lockFreeReadOf(m, span, a, func(data []byte) { first = string(data) })
			runUntil(t, c, sim.Millisecond, func() bool { return c.Counters.Get("report_fenced") > fenced })
			m.LockFreeRead(0, b, 8, func(data []byte, err error) { second = string(data) })
			c.RunFor(50 * sim.Microsecond)
			if n := c.Counters.Get("report_fenced") - fenced; n != 2 || first != "" || second != "" {
				t.Fatalf("%d reports fenced (%q, %q delivered), want both reads fenced", n, first, second)
			}
			m.lease.renewed = max(renewed, c.Eng.Now())
			m.flushFencedReports()
			if first != "aaaaaaaa" || second != "bbbbbbbb" {
				t.Fatalf("fenced reads delivered %q and %q, want aaaaaaaa and bbbbbbbb", first, second)
			}
		})
	}
}

// TestClientRespCarriesWhatWasRead: an external client's read is served by
// a lock-free read whose buffer the next read reuses at once; the
// CLIENT-RESP, still on the wire then, carries its own copy of the bytes.
func TestClientRespCarriesWhatWasRead(t *testing.T) {
	c, prim, _, a, b := lockFreeRig(t)
	cl := c.NewClient()
	c.Net.SetLinkFault(fabric.MachineID(prim.ID), fabric.MachineID(cl.ID), fabric.LinkFault{Delay: sim.Fixed(50 * sim.Microsecond)})
	var got []byte
	cl.Read(prim.ID, a, 8, func(data []byte, err error) {
		if err != nil {
			t.Fatalf("client read: %v", err)
		}
		got = data
	})
	sent := func() uint64 { return c.Counters.Get("sent CLIENT-RESP") }
	base := sent()
	runUntil(t, c, sim.Millisecond, func() bool { return sent() > base })
	var other []byte
	prim.LockFreeRead(0, b, 8, func(data []byte, err error) { other = data })
	runUntil(t, c, sim.Millisecond, func() bool { return other != nil && got != nil })
	if string(got) != "aaaaaaaa" {
		t.Fatalf("the client got %q, want aaaaaaaa", got)
	}
}
