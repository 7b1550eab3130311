package core

import (
	"cmp"
	"fmt"
	"slices"

	"farm/internal/fabric"
	"farm/internal/proto"
	"farm/internal/sim"
	"farm/internal/trace"
)

// This file is the typed message transport: the single choke point between
// the protocol components and the fabric. Every reliable message a machine
// sends or receives goes through here (lease traffic excepted — it keeps
// its dedicated priority path so failure-detection timing is independent
// of control-plane load, §5.1).
//
// The transport owns four things:
//
//   - The handler registry: each message type is registered once with its
//     protocol name, wire-size model and typed handler. Counter names are
//     precomputed at registration, so the receive path allocates nothing.
//   - The one send path (enqueue): every message leaves at once, alone in
//     a pooled fabric.Batch frame that also carries its send stamp and,
//     when traced, its causal context. The paper cuts message counts by
//     turning messages into one-sided ring writes (§4), not by batching
//     the few that are left; nothing here delays a message, and nothing
//     orders two messages to one destination beyond what the NIC does.
//   - The call table: the requests that await an answer, matched to it by
//     call id and failed when it will not come.
//   - Accounting: per-type sent/wire-byte counters and per-type delivery
//     latency histograms (send → receiver dispatch: NIC queue, wire and
//     receive, nothing else) via internal/stats.

// transport is one machine's message layer.
type transport struct {
	m   *Machine
	reg *proto.Registry

	cUnknown *uint64 // the "msg unknown" cell
}

func newTransport(m *Machine) *transport {
	t := &transport{
		m:   m,
		reg: proto.NewRegistry(),
	}
	t.registerHandlers()
	// Pre-resolve every handler's counter cells so the send and receive hot
	// paths bump pointers instead of hashing counter names per message.
	ctr := m.c.Counters
	t.reg.Each(func(h *proto.Handler) {
		h.RecvCell = ctr.Cell(h.RecvCounter)
		h.SentCell = ctr.Cell(h.SentCounter)
		h.BytesCell = ctr.Cell(h.BytesCounter)
	})
	t.cUnknown = ctr.Cell("msg unknown")
	return t
}

// enqueue sends one outbound message, of any registered type, as one
// fabric frame charged the message's modeled wire size. It runs on a worker
// thread with the send CPU cost already charged (sendMsg dispatches here
// from inside its costed task). ctx is the sender's causal context (zero
// when untraced). The frame is the fabric's from SendBatch on: it is
// reclaimed after the last delivery, a loss, or a send by a dead NIC.
func (t *transport) enqueue(dst int, msg interface{}, ctx trace.Ctx) {
	h := t.reg.Lookup(msg)
	if h == nil {
		// Unregistered types have no wire format or receive handler; count
		// and drop here at the send side instead of shipping bytes the
		// receiver will only discard. The guard must run before any use of
		// h's counter cells — h.SizeOf tolerates a nil receiver, but
		// h.SentCell does not.
		*t.cUnknown++
		return
	}
	sz := h.SizeOf(msg)
	*h.SentCell++
	*h.BytesCell += uint64(sz)
	now := t.m.c.Eng.Now()
	b := t.m.nic.GetBatch()
	b.Msgs = append(b.Msgs, msg)
	b.Stamps = append(b.Stamps, now)
	if t.m.trb != nil && ctx.Valid() {
		// h.SentCounter ("sent NAME") doubles as the precomputed event
		// name; the charged wire bytes ride along as the span attribute.
		t.m.trb.Event("msg", h.SentCounter, now, ctx.Trace, ctx.Span, int64(sz))
		b.Ctxs = append(b.Ctxs, ctx)
	}
	t.m.nic.SendBatch(fabric.MachineID(dst), b, sz)
}

// The call table: every request that awaits an answer from another
// machine's CPU — VALIDATE, ALLOC-SLOT, MAPPING-REQ, ALLOC-REGION-REQ and
// the CM's ALLOC-REGION-PREPAREs, application calls, every §5.3 exchange,
// NEW-CONFIG, NEW-CONFIG-COMMIT, REGIONS-ACTIVE, ALL-REGIONS-ACTIVE, data
// and allocator recovery's BLOCK-HEADER-REQs, and an audit's AUDIT-SNAP,
// AUDIT-OBJECTS-REQ and AUDIT-REPAIR — is a plain message carrying the id
// call returned; the reply handler hands the answer to answer. One rule
// covers the rest. A call with a resend goes out again every interval until
// answered (a receiver not ready yet does not answer), and fails when its
// tries run out; one without fails unanswered after txStallTimeout
// (watchdog.go). Every call fails when its destination leaves the
// configuration, a resent one also when its configuration is superseded
// (onNewConfig). Either way done, if any, runs once.

// pendingCall is one request awaiting its answer from dst. msg is kept for
// a resent call's resends and for its type (OpenCalls, failCalls): a pooled
// APP may carry another call by the time its own is answered.
type pendingCall struct {
	id   uint64
	dst  int
	msg  interface{}
	sent sim.Time
	done func(resp interface{}, err error)
	resend
}

// resend is how the table repeats a call: every interval, tries more times
// at most, while configuration cfg lasts; ctx is the causal context of the
// resends. The zero value does not resend.
type resend struct {
	every sim.Time
	tries int
	cfg   uint64
	ctx   trace.Ctx
}

// call registers msg, a request to dst, and returns the id it must carry.
// Ids start at 1 and only grow, so the table stays in id order.
func (m *Machine) call(dst int, msg interface{}, done func(resp interface{}, err error)) uint64 {
	m.nextRPC++
	m.calls = append(m.calls, pendingCall{id: m.nextRPC, dst: dst, msg: msg, sent: m.c.Eng.Now(), done: done})
	return m.nextRPC
}

// callResent is call for a request the table resends by r. Its first send
// is the caller's.
func (m *Machine) callResent(dst int, msg interface{}, r resend, done func(resp interface{}, err error)) uint64 {
	id := m.call(dst, msg, done)
	m.calls[len(m.calls)-1].resend = r
	m.armResend(id, r.every)
	return id
}

// armResend resends call id after every, unless it ended meanwhile.
func (m *Machine) armResend(id uint64, every sim.Time) {
	m.c.Eng.After(every, func() {
		i, open := m.findCall(id)
		if !m.alive || !open {
			return
		}
		c := &m.calls[i]
		if c.tries == 0 {
			m.failCalls(func(c pendingCall) bool { return c.id == id })
			return
		}
		c.tries--
		m.c.Counters.Inc("call_resent", 1)
		m.sendCtx(c.dst, c.msg, c.ctx)
		m.armResend(id, every)
	})
}

// findCall locates call id in the table.
func (m *Machine) findCall(id uint64) (int, bool) {
	return slices.BinarySearchFunc(m.calls, id, func(c pendingCall, id uint64) int { return cmp.Compare(c.id, id) })
}

// answer passes resp to the call id names. An id never issued, already
// answered or already failed answers nothing.
func (m *Machine) answer(id uint64, resp interface{}) {
	i, ok := m.findCall(id)
	if !ok {
		return
	}
	done := m.calls[i].done
	m.calls = slices.Delete(m.calls, i, i+1)
	if done != nil {
		done(resp, nil)
	}
}

// failCalls fails with ErrUnavailable, in id order, the calls lost says no
// answer will come to.
func (m *Machine) failCalls(lost func(pendingCall) bool) {
	var failed []pendingCall
	kept := m.calls[:0]
	for _, c := range m.calls {
		if lost(c) {
			failed = append(failed, c)
		} else {
			kept = append(kept, c)
		}
	}
	clear(m.calls[len(kept):]) // hold no finished caller
	m.calls = kept
	for _, c := range failed {
		if _, ok := c.msg.(*appCall); ok {
			m.c.Counters.Inc("app_call_stalled", 1)
		}
		if c.done != nil {
			c.done(nil, ErrUnavailable)
		}
	}
}

// OpenCalls describes each call awaiting its answer: the request's message
// type, its destination and how long ago it was made.
func (m *Machine) OpenCalls() []string {
	out := make([]string, len(m.calls))
	for i, c := range m.calls {
		out[i] = fmt.Sprintf("%s to m%d for %v", m.tp.reg.Lookup(c.msg).Name, c.dst, m.c.Eng.Now()-c.sent)
	}
	return out
}

// callSize is the wire size of a request or reply that names a call: the
// 16-byte call header plus a small fixed body.
func callSize[T any](T) int { return 16 + proto.DefaultMsgSize }

// recordWireSize models the serialized size of a log record carried inside
// a recovery message (a modelled framing plus payloads; the ring encoding
// is proto.AppendRecord's and is sized by proto.RecordSize).
func recordWireSize(r *proto.Record) int {
	if r == nil {
		return 0
	}
	n := 48 + 8*len(r.TruncIDs) + 4*len(r.Regions)
	for _, w := range r.Writes {
		n += 24 + len(w.Value)
	}
	return n
}

// registerHandlers wires every message type this machine can receive (or
// send, for send-only entries) to its owner. This table is the complete
// protocol vocabulary; the registry panics on duplicates and the
// completeness test fails on omissions.
func (t *transport) registerHandlers() {
	m := t.m
	r := t.reg

	// Transaction protocol (Table 2). A LOCK-REPLY is pooled by its sender
	// and reclaimed with its frame: dispatchMsg hands its verdict to
	// onLockReply by value instead of running this handler on the message.
	proto.Register(r, "LOCK-REPLY", nil,
		func(src int, v *proto.LockReply) { m.onLockReply(src, v.Tx, v.OK) })
	proto.Register(r, "VALIDATE",
		func(v *proto.ValidateReq) int { return 24 + 16*len(v.Addrs) },
		func(src int, v *proto.ValidateReq) { m.onValidateReq(src, v) })
	proto.Register(r, "VALIDATE-REPLY", nil,
		func(_ int, v *proto.ValidateReply) { m.answer(v.ID, v) })

	// Slot allocation (§5.5) and mapping lookups (§3): calls answered by
	// an RPC-REPLY and a MAPPING-RESP.
	proto.Register(r, "ALLOC-SLOT", callSize[*allocSlotReq],
		func(src int, v *allocSlotReq) { m.onAllocSlot(src, v) })
	proto.Register(r, "MAPPING-REQ", callSize[*proto.MappingReq],
		func(src int, v *proto.MappingReq) { m.onMappingReq(src, v) })
	// An RPC-REPLY is pooled by an application's sender: dispatchMsg hands
	// its answer to the call table by value instead of running this
	// handler on the message.
	proto.Register(r, "RPC-REPLY", callSize[*rpcReply],
		func(_ int, v *rpcReply) { m.answer(v.ID, v.Body) })
	proto.Register(r, "RELEASE-SLOT", nil,
		func(src int, v *releaseSlotReq) {
			// §5.2: only current members may return slots; a zombie's
			// release could double-free a slot allocator recovery already
			// reclaimed and handed out again.
			if !m.isMember(src) {
				return
			}
			if rep := m.replica(v.Region); rep != nil && rep.primary && !rep.allocRecovering && rep.alloc.Slot(int(v.Off)) {
				rep.alloc.Free(int(v.Off))
			}
		})
	proto.Register(r, "MAPPING-RESP", nil,
		func(_ int, v *proto.MappingResp) {
			// A late answer, or an announcement, still refreshes the cache.
			if v.OK {
				m.setMapping(&v.Map)
			}
			m.answer(v.ID, v)
			// Wake waiters on failure too (the CM echoes the region in a
			// miss): they retry with backoff and eventually surface an
			// error, instead of hanging on a region the CM cannot resolve.
			m.wakeMappingWaiters(v.Map.Region)
		})

	// Region allocation (CM side + replica side, §3): the request and each
	// prepare are calls, answered by an RPC-REPLY and by PREPARED.
	proto.Register(r, "ALLOC-REGION-REQ", callSize[*proto.AllocRegionReq],
		func(src int, v *proto.AllocRegionReq) { m.onAllocRegionReq(src, v) })
	proto.Register(r, "ALLOC-REGION-PREPARE", nil,
		func(src int, v *proto.AllocRegionPrepare) { m.onAllocPrepare(src, v) })
	proto.Register(r, "ALLOC-REGION-PREPARED", nil,
		func(_ int, v *proto.AllocRegionPrepared) { m.answer(v.ID, v) })
	proto.Register(r, "ALLOC-REGION-COMMIT", nil,
		func(_ int, v *proto.AllocRegionCommit) { m.onAllocCommit(v) })

	// Leases over the RPC transport (LeaseRPC variant; the lease manager is
	// installed after machine construction, hence the dispatch-time deref).
	proto.Register(r, "LEASE-REQUEST", nil,
		func(src int, v *proto.LeaseRequest) {
			if m.lease != nil {
				m.lease.onRequest(src, v)
			}
		})
	proto.Register(r, "LEASE-GRANT", nil,
		func(src int, v *proto.LeaseGrant) {
			if m.lease != nil {
				m.lease.onGrant(src, v)
			}
		})

	// Suspicions reported to the CM (lease.go). One naming the CM itself
	// is dropped: a machine that suspects the CM asks its successors
	// (suspectCM).
	proto.Register(r, "SUSPECT-REPORT", nil,
		func(_ int, v *suspectReport) {
			if v.Config == m.config.ID && m.IsCM() && v.Suspect != m.ID {
				m.suspect(v.Suspect)
			}
		})

	// Reconfiguration (§5.2). NEW-CONFIG, NEW-CONFIG-COMMIT and both
	// *REGIONS-ACTIVE are calls, answered by NEW-CONFIG-ACK and RPC-REPLYs.
	proto.Register(r, "RECONFIG-ASK", nil,
		func(_ int, v *reconfigAsk) { m.onReconfigAsk(v) })
	proto.Register(r, "NEW-CONFIG",
		func(v *proto.NewConfig) int {
			n := 40 + 2*len(v.Config.Machines)
			for i := range v.Regions {
				n += 28 + 2*len(v.Regions[i].Replicas)
			}
			return n
		},
		func(src int, v *proto.NewConfig) { m.onNewConfig(src, v) })
	proto.Register(r, "NEW-CONFIG-ACK", nil,
		func(_ int, v *proto.NewConfigAck) { m.answer(v.ID, v) })
	proto.Register(r, "NEW-CONFIG-COMMIT", nil,
		func(src int, v *proto.NewConfigCommit) { m.onNewConfigCommit(src, v) })
	proto.Register(r, "REGIONS-ACTIVE", nil,
		func(src int, v *proto.RegionsActive) { m.onRegionsActive(src, v) })
	proto.Register(r, "ALL-REGIONS-ACTIVE", nil,
		func(src int, v *proto.AllRegionsActive) { m.onAllRegionsActive(src, v) })
	proto.Register(r, "REGION-ACTIVE", nil,
		func(_ int, v *regionActiveAnnounce) { m.unblockRegion(v.Region) })
	proto.Register(r, "BLOCK-HEADER-REQ", callSize[*proto.BlockHeaderReq],
		func(src int, v *proto.BlockHeaderReq) { m.onBlockHeaderReq(src, v) })
	proto.Register(r, "BLOCK-HEADER-RESP",
		func(v *proto.BlockHeaderResp) int { return 16 + 16*len(v.Headers) },
		func(_ int, v *proto.BlockHeaderResp) { m.answer(v.ID, v) })

	// Transaction state recovery (§5.3). Every request is a call: NEED-
	// RECOVERY, pushed votes and TRUNCATE-RECOVERY are answered by an
	// RPC-REPLY, the others by their reply, and REQUEST-VOTE by the vote.
	proto.Register(r, "NEED-RECOVERY",
		func(v *proto.NeedRecovery) int { return 32 + 24*len(v.Txs) },
		func(src int, v *proto.NeedRecovery) { m.onNeedRecovery(src, v) })
	proto.Register(r, "FETCH-TX-STATE",
		func(*proto.FetchTxState) int { return 48 },
		func(src int, v *proto.FetchTxState) { m.onFetchTxState(src, v) })
	proto.Register(r, "SEND-TX-STATE",
		func(v *proto.SendTxState) int { return 40 + recordWireSize(v.Lock) },
		func(_ int, v *proto.SendTxState) { m.answer(v.ID, v) })
	proto.Register(r, "REPLICATE-TX-STATE",
		func(v *proto.ReplicateTxState) int { return 40 + recordWireSize(v.Lock) },
		func(src int, v *proto.ReplicateTxState) { m.onReplicateTxState(src, v) })
	proto.Register(r, "REPLICATE-TX-STATE-ACK", nil,
		func(_ int, v *proto.ReplicateTxStateAck) { m.answer(v.ID, v) })
	proto.Register(r, "RECOVERY-VOTE",
		func(v *proto.RecoveryVote) int { return 48 + 4*len(v.Regions) },
		func(src int, v *proto.RecoveryVote) { m.onRecoveryVote(src, v) })
	proto.Register(r, "REQUEST-VOTE", nil,
		func(src int, v *proto.RequestVote) { m.onRequestVote(src, v) })
	proto.Register(r, "COMMIT-RECOVERY", nil,
		func(src int, v *proto.CommitRecovery) { m.onRecoveryDecision(src, v.ID, v.Tx, true) })
	proto.Register(r, "ABORT-RECOVERY", nil,
		func(src int, v *proto.AbortRecovery) { m.onRecoveryDecision(src, v.ID, v.Tx, false) })
	proto.Register(r, "RECOVERY-DECISION-ACK", nil,
		func(_ int, v *proto.RecoveryDecisionAck) { m.answer(v.ID, v) })
	proto.Register(r, "TRUNCATE-RECOVERY", nil,
		func(src int, v *proto.TruncateRecovery) { m.onTruncateRecovery(src, v) })

	// State-integrity auditing: each request is a call, answered by its
	// reply.
	proto.Register(r, "AUDIT-SNAP",
		func(v *proto.AuditSnap) int { return 24 + 16*len(v.Headers) },
		func(src int, v *proto.AuditSnap) { m.onAuditSnap(src, v) })
	proto.Register(r, "AUDIT-SNAP-REPLY",
		// Each listed block's digest is charged with its block index.
		func(v *proto.AuditSnapReply) int { return 48 + 16*len(v.Blocks) },
		func(_ int, v *proto.AuditSnapReply) { m.answer(v.ID, v) })
	proto.Register(r, "AUDIT-OBJECTS-REQ", nil,
		func(src int, v *proto.AuditObjectsReq) { m.onAuditObjectsReq(src, v) })
	proto.Register(r, "AUDIT-OBJECTS-REPLY",
		func(v *proto.AuditObjectsReply) int { return 24 + 8*len(v.Objects) },
		func(_ int, v *proto.AuditObjectsReply) { m.answer(v.ID, v) })
	proto.Register(r, "AUDIT-REPAIR", nil,
		func(src int, v *proto.AuditRepair) { m.onAuditRepair(src, v) })
	proto.Register(r, "AUDIT-REPAIR-DONE", nil,
		func(_ int, v *proto.AuditRepairDone) { m.answer(v.ID, v) })

	// Cluster growth (§3).
	proto.Register(r, "JOIN-REQ", nil,
		func(_ int, v *joinReq) { m.onJoinReq(v) })

	// External clients (§5.2).
	proto.Register(r, "CLIENT-READ", nil,
		func(src int, v *clientReadReq) { m.onClientRead(src, v) })
	proto.Register(r, "CLIENT-UPDATE",
		func(v *clientUpdateReq) int { return 24 + len(v.Value) },
		func(src int, v *clientUpdateReq) { m.onClientUpdate(src, v) })
	proto.Register[*clientResp](r, "CLIENT-RESP",
		func(v *clientResp) int { return 24 + len(v.Data) + len(v.Err) },
		nil) // send-only: responses terminate at external clients

	// Application calls (function shipping, §6.2). The delivery holds the
	// call until the handler returned (dispatchMsg).
	proto.Register(r, "APP", nil,
		func(src int, v *appCall) {
			if m.appHandler != nil {
				m.appHandler(src, v.Req, AppCall{m: m, from: src, id: v.ID})
			}
			v.release()
		})

}
