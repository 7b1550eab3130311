package core

import (
	"reflect"

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
// The transport owns three things:
//
//   - The handler registry: each message type is registered once with its
//     protocol name, wire-size model and typed handler, replacing the old
//     monolithic type switches in handleMessage/onRPC. Counter names are
//     precomputed at registration, so the receive path allocates nothing.
//   - Per-destination send queues: FaRM's first design principle is to
//     reduce message counts (§1, §4). Small control messages to the same
//     destination travel as a single fabric frame (fabric.Batch); the
//     receiver dispatches them individually, so handlers and per-message
//     CPU costs are unchanged. When a queue flushes is the adaptive
//     policy's job (CoalescePolicy): byte/message budgets flush busy
//     queues immediately, phase-end doorbells (flushHint) flush
//     commit-critical traffic without waiting out the timer, and the
//     per-queue timer interval stretches under sustained load and shrinks
//     when the destination goes idle — all from simulated state only, so
//     runs replay byte-identically.
//   - Accounting: per-type sent/wire-byte counters and per-type delivery
//     latency histograms (enqueue → handler dispatch) via internal/stats.

// batchFrameOverhead models the transport header of one coalesced frame.
const batchFrameOverhead = 16

// sendQueue buffers outbound messages for one destination until a flush:
// the armed timer firing, a budget crossing, or a phase-end doorbell
// (flushHint). Messages accumulate directly into a pooled fabric.Batch
// frame (b.Ctxs is parallel to b.Msgs only while tracing is enabled;
// untraced runs never append to it), and flushFn is the queue's single
// pre-bound flush closure, so steady-state coalescing allocates nothing:
// the fabric recycles the frame after delivery and the queue grabs a
// fresh one from the pool on the next enqueue.
//
// interval is the queue's current adaptive flush interval — per
// destination, adjusted only from simulated events (enqueue budget
// crossings and timer firings), so it is a deterministic function of the
// run. lastFlush remembers when the queue last went empty; a long gap
// before the next arm means the destination went idle and the interval
// shrinks back toward the minimum.
type sendQueue struct {
	dst       int
	b         *fabric.Batch
	bytes     int
	armed     bool
	interval  sim.Time
	lastFlush sim.Time
	timer     sim.Timer
	flushFn   func()
}

// rpcHandler serves one request type arriving inside an rpcEnvelope.
type rpcHandler struct {
	name string
	fn   func(from int, id uint64, body interface{})
}

// transport is one machine's message layer.
type transport struct {
	m      *Machine
	reg    *proto.Registry
	rpc    map[reflect.Type]*rpcHandler
	queues map[int]*sendQueue

	// Flush policy (from Options): interval is the base (and fixed-policy)
	// flush delay, negative when coalescing is disabled. Under the adaptive
	// policy, queues flush early at the byte/message budgets and their
	// timers wander within [minInterval, maxInterval].
	interval    sim.Time
	adaptive    bool
	budgetBytes int
	budgetMsgs  int
	minInterval sim.Time
	maxInterval sim.Time

	// Pre-resolved counter cells for the flush paths.
	cUnknown     *uint64
	cFlushBudget *uint64
	cFlushTimer  *uint64
	cFlushBell   *uint64
}

func newTransport(m *Machine) *transport {
	o := m.c.Opts
	t := &transport{
		m:           m,
		reg:         proto.NewRegistry(),
		rpc:         make(map[reflect.Type]*rpcHandler),
		queues:      make(map[int]*sendQueue),
		interval:    o.CoalesceInterval,
		adaptive:    o.CoalescePolicy == CoalesceAdaptive,
		budgetBytes: o.CoalesceMaxBytes,
		budgetMsgs:  o.CoalesceMaxMsgs,
		minInterval: o.CoalesceMinInterval,
		maxInterval: o.CoalesceMaxInterval,
	}
	t.registerHandlers()
	t.registerRPCHandlers()
	// Pre-resolve every handler's counter cells so the send and receive hot
	// paths bump pointers instead of hashing counter names per message.
	ctr := m.c.Counters
	t.reg.Each(func(h *proto.Handler) {
		h.RecvCell = ctr.Cell(h.RecvCounter)
		h.SentCell = ctr.Cell(h.SentCounter)
		h.BytesCell = ctr.Cell(h.BytesCounter)
	})
	t.cUnknown = ctr.Cell("msg unknown")
	t.cFlushBudget = ctr.Cell("coalesce_flush_budget")
	t.cFlushTimer = ctr.Cell("coalesce_flush_timer")
	t.cFlushBell = ctr.Cell("coalesce_flush_doorbell")
	return t
}

// enqueue accepts one outbound message. It runs on a worker thread with
// the send CPU cost already charged (m.send / m.sendFromThread dispatch
// here from inside their costed closures). Priority types (failure
// detection and recovery control, proto.RegisterPriority) and transports
// with coalescing disabled send directly — never batched; everything else
// joins the destination's queue and the first message arms the flush
// timer. ctx is the sender's causal context (zero when untraced).
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
	if t.m.trb != nil && ctx.Valid() {
		// h.SentCounter ("sent NAME") doubles as the precomputed event
		// name; the charged wire bytes ride along as the span attribute.
		t.m.trb.Event("msg", h.SentCounter, t.m.c.Eng.Now(), ctx.Trace, ctx.Span, int64(sz))
	}
	if t.interval < 0 || h.Priority {
		t.sendDirect(dst, msg, sz, ctx)
		return
	}
	q := t.queues[dst]
	if q == nil {
		q = &sendQueue{dst: dst, interval: t.interval}
		q.flushFn = func() { t.timerFlush(q) }
		t.queues[dst] = q
	}
	if q.b == nil {
		q.b = t.m.nic.GetBatch()
	}
	q.b.Msgs = append(q.b.Msgs, msg)
	q.b.Stamps = append(q.b.Stamps, t.m.c.Eng.Now())
	if t.m.trb != nil {
		// Parallel to Msgs, so zero contexts pad untraced messages.
		q.b.Ctxs = append(q.b.Ctxs, ctx)
	}
	q.bytes += sz
	if t.adaptive && (len(q.b.Msgs) >= t.budgetMsgs || q.bytes >= t.budgetBytes) {
		// Budget crossed: the frame already carries enough to be worth a
		// send on its own, so it departs now — and the queue is clearly
		// under sustained load, so the timer stretches to gather bigger
		// frames next time.
		*t.cFlushBudget++
		q.interval = t.stretched(q.interval)
		t.fire(q)
		return
	}
	if !q.armed {
		q.armed = true
		iv := t.interval
		if t.adaptive {
			// An arm after the queue sat empty for longer than its own
			// interval means the destination went idle: shrink back toward
			// the minimum so sparse traffic stops paying peak-load delays.
			if now := t.m.c.Eng.Now(); now-q.lastFlush > q.interval {
				q.interval = t.shrunk(q.interval)
			}
			iv = q.interval
		}
		q.timer = t.m.c.Eng.AfterTimer(iv, q.flushFn)
	}
}

// stretched and shrunk move an adaptive interval one step toward its
// bound; both are pure functions of the argument, so the policy stays
// deterministic.
func (t *transport) stretched(iv sim.Time) sim.Time {
	if iv *= 2; iv > t.maxInterval {
		return t.maxInterval
	}
	return iv
}

func (t *transport) shrunk(iv sim.Time) sim.Time {
	if iv /= 2; iv < t.minInterval {
		return t.minInterval
	}
	return iv
}

// sendDirect transmits one uncoalesced message, charging its modeled wire
// size against the NIC (all reliable sends occupy the wire, not just
// batches). A live causal context travels in a trace.Traced wrapper —
// allocated only on traced sends, so untraced runs are byte-for-byte the
// old direct path.
func (t *transport) sendDirect(dst int, msg interface{}, sz int, ctx trace.Ctx) {
	if t.m.trb != nil && ctx.Valid() {
		msg = &trace.Traced{Ctx: ctx, Msg: msg}
	}
	t.m.nic.SendSized(fabric.MachineID(dst), msg, sz)
}

// timerFlush is the armed timer's path: the queue flushes because its
// interval elapsed. Under the adaptive policy the timer's own harvest
// steers the interval — a near-empty frame means the interval is too long
// for the current traffic (shrink), a frame at half the message budget or
// more means budget flushes are imminent anyway (stretch).
func (t *transport) timerFlush(q *sendQueue) {
	if !q.armed {
		return
	}
	if t.adaptive && q.b != nil {
		if n := len(q.b.Msgs); n <= 1 {
			q.interval = t.shrunk(q.interval)
		} else if 2*n >= t.budgetMsgs {
			q.interval = t.stretched(q.interval)
		}
	}
	*t.cFlushTimer++
	t.fire(q)
}

// flushHint is the phase-end doorbell: a commit-protocol step that just
// finished fanning out to dst rings it so whatever the step queued departs
// now instead of waiting out the flush timer. It is a hint — empty queues
// and the fixed policy (the A/B baseline, which models the pre-doorbell
// transport) ignore it — so callers ring unconditionally.
func (t *transport) flushHint(dst int) {
	if !t.adaptive {
		return
	}
	q := t.queues[dst]
	if q == nil || !q.armed {
		return
	}
	*t.cFlushBell++
	t.fire(q)
}

// fire drains one destination's queue into a single fabric frame,
// cancelling any armed timer. A machine that died since enqueueing sends
// nothing — the same messages would have been dropped by the old per-send
// alive check — and its frame goes back to the pool.
func (t *transport) fire(q *sendQueue) {
	q.armed = false
	q.timer.Stop() // no-op when fire runs from the timer itself
	q.lastFlush = t.m.c.Eng.Now()
	b, bytes := q.b, q.bytes
	q.b, q.bytes = nil, 0
	if b == nil {
		return
	}
	if len(b.Msgs) == 0 || !t.m.alive {
		t.m.nic.ReleaseBatch(b)
		return
	}
	t.m.nic.SendBatch(fabric.MachineID(q.dst), b, bytes+batchFrameOverhead)
}

// dispatchRPC routes an rpcEnvelope body to its registered service method.
// An envelope-piggybacked trace context parents the service work (and any
// reply it sends) on the requester's span.
func (t *transport) dispatchRPC(env *rpcEnvelope) {
	h := t.rpc[reflect.TypeOf(env.Body)]
	if h == nil {
		t.m.c.Counters.Inc("rpc unknown", 1)
		return
	}
	if t.m.trb != nil && env.Ctx.Valid() {
		prev := t.m.curCtx
		t.m.curCtx = env.Ctx
		h.fn(env.From, env.ID, env.Body)
		t.m.curCtx = prev
		return
	}
	h.fn(env.From, env.ID, env.Body)
}

// registerRPC installs a typed service method for one envelope body type.
func registerRPC[T any](t *transport, name string, fn func(from int, id uint64, req T)) {
	var zero T
	typ := reflect.TypeOf(zero)
	if _, dup := t.rpc[typ]; dup {
		panic("core: duplicate RPC handler for " + typ.String())
	}
	t.rpc[typ] = &rpcHandler{name: name, fn: func(from int, id uint64, body interface{}) {
		fn(from, id, body.(T))
	}}
}

// innerSize models the wire size of a value nested inside an envelope or
// reply, via its own registration.
func (t *transport) innerSize(body interface{}) int {
	return t.reg.Lookup(body).SizeOf(body)
}

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

	// Transaction protocol (Table 2).
	proto.Register(r, "LOCK-REPLY", nil,
		func(_ int, v *proto.LockReply) { m.onLockReply(v.Tx, v.OK) })
	proto.Register(r, "VALIDATE",
		func(v *proto.ValidateReq) int { return 24 + 16*len(v.Addrs) },
		func(src int, v *proto.ValidateReq) { m.onValidateReq(src, v) })
	proto.Register(r, "VALIDATE-REPLY", nil,
		func(_ int, v *proto.ValidateReply) { m.onValidateReply(v) })

	// Slot allocation and mapping RPCs.
	proto.Register(r, "RPC",
		func(v *rpcEnvelope) int { return 16 + t.innerSize(v.Body) },
		func(_ int, v *rpcEnvelope) { t.dispatchRPC(v) })
	proto.Register(r, "RPC-REPLY",
		func(v *rpcReply) int { return 16 + t.innerSize(v.Body) },
		func(_ int, v *rpcReply) {
			if w := m.rpcWaiters[v.ID]; w != nil {
				delete(m.rpcWaiters, v.ID)
				w(v.Body)
			}
		})
	proto.Register(r, "RELEASE-SLOT", nil,
		func(src int, v *releaseSlotReq) {
			// §5.2: only current members may return slots; a zombie's
			// release could double-free a slot allocator recovery already
			// reclaimed and handed out again.
			if !m.isMember(src) {
				return
			}
			if rep := m.replicas[v.Region]; rep != nil && rep.primary && !rep.allocRecovering {
				rep.alloc.Free(int(v.Off))
			}
		})
	proto.Register(r, "MAPPING-RESP", nil,
		func(_ int, v *proto.MappingResp) {
			if v.OK {
				cp := v.Map
				m.mappings[cp.Region] = &cp
			}
			// Wake waiters on failure too (the CM echoes the region in a
			// miss): they retry with backoff and eventually surface an
			// error, instead of hanging on a region the CM cannot resolve.
			m.wakeMappingWaiters(v.Map.Region)
		})

	// Region allocation (CM side + replica side, §3).
	proto.Register(r, "ALLOC-REGION-PREPARE", nil,
		func(src int, v *proto.AllocRegionPrepare) { m.onAllocPrepare(src, v) })
	proto.Register(r, "ALLOC-REGION-PREPARED", nil,
		func(src int, v *proto.AllocRegionPrepared) { m.onAllocPrepared(src, v) })
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

	// Hierarchical lease suspicions (§5.1). Priority: suspicion reports
	// feed failure detection and must not sit in coalescing queues.
	proto.RegisterPriority(r, "SUSPECT-REPORT", nil,
		func(_ int, v *suspectReport) {
			if v.Config == m.config.ID && m.IsCM() {
				m.suspect(v.Suspect)
			}
		})

	// Reconfiguration (§5.2). The NEW-CONFIG class is priority: during
	// reconfiguration the queues are at their fullest and these messages
	// gate every other protocol's progress.
	proto.RegisterPriority(r, "RECONFIG-ASK", nil,
		func(_ int, v *reconfigAsk) { m.onReconfigAsk(v) })
	proto.RegisterPriority(r, "NEW-CONFIG",
		func(v *proto.NewConfig) int {
			n := 32 + 2*len(v.Config.Machines)
			for i := range v.Regions {
				n += 28 + 2*len(v.Regions[i].Replicas)
			}
			return n
		},
		func(src int, v *proto.NewConfig) { m.onNewConfig(src, v) })
	proto.RegisterPriority(r, "NEW-CONFIG-ACK", nil,
		func(src int, v *proto.NewConfigAck) { m.onNewConfigAck(src, v) })
	proto.RegisterPriority(r, "NEW-CONFIG-COMMIT", nil,
		func(_ int, v *proto.NewConfigCommit) { m.onNewConfigCommit(v) })
	proto.Register(r, "REGIONS-ACTIVE", nil,
		func(src int, v *proto.RegionsActive) { m.onRegionsActive(src, v) })
	proto.Register(r, "ALL-REGIONS-ACTIVE", nil,
		func(_ int, v *proto.AllRegionsActive) { m.onAllRegionsActive(v) })
	proto.Register(r, "REGION-ACTIVE", nil,
		func(_ int, v *regionActiveAnnounce) { m.unblockRegion(v.Region) })
	proto.Register(r, "BLOCK-HEADER-SYNC",
		func(v *proto.BlockHeaderSync) int { return 16 + 16*len(v.Headers) },
		func(_ int, v *proto.BlockHeaderSync) { m.onBlockHeaderSync(v) })

	// Transaction state recovery (§5.3).
	proto.Register(r, "NEED-RECOVERY",
		func(v *proto.NeedRecovery) int { return 24 + 24*len(v.Txs) },
		func(src int, v *proto.NeedRecovery) { m.onNeedRecovery(src, v) })
	proto.Register(r, "FETCH-TX-STATE",
		func(v *proto.FetchTxState) int { return 24 + 16*len(v.TxIDs) },
		func(src int, v *proto.FetchTxState) { m.onFetchTxState(src, v) })
	proto.Register(r, "SEND-TX-STATE",
		func(v *proto.SendTxState) int { return 32 + recordWireSize(v.Lock) },
		func(_ int, v *proto.SendTxState) { m.onSendTxState(v) })
	proto.Register(r, "REPLICATE-TX-STATE",
		func(v *proto.ReplicateTxState) int { return 32 + recordWireSize(v.Lock) },
		func(src int, v *proto.ReplicateTxState) { m.onReplicateTxState(src, v) })
	proto.Register(r, "REPLICATE-TX-STATE-ACK", nil,
		func(_ int, v *proto.ReplicateTxStateAck) { m.onReplicateTxStateAck(v) })
	// Votes and decisions are priority: recovery latency is bounded by the
	// slowest vote, so they bypass coalescing (never batched).
	proto.RegisterPriority(r, "RECOVERY-VOTE",
		func(v *proto.RecoveryVote) int { return 40 + 4*len(v.Regions) },
		func(src int, v *proto.RecoveryVote) { m.onRecoveryVote(src, v) })
	proto.RegisterPriority(r, "REQUEST-VOTE", nil,
		func(src int, v *proto.RequestVote) { m.onRequestVote(src, v) })
	proto.RegisterPriority(r, "COMMIT-RECOVERY", nil,
		func(src int, v *proto.CommitRecovery) { m.onRecoveryDecision(src, v.Tx, true) })
	proto.RegisterPriority(r, "ABORT-RECOVERY", nil,
		func(src int, v *proto.AbortRecovery) { m.onRecoveryDecision(src, v.Tx, false) })
	proto.RegisterPriority(r, "RECOVERY-DECISION-ACK", nil,
		func(src int, v *proto.RecoveryDecisionAck) { m.onRecoveryDecisionAck(src, v) })
	proto.Register(r, "TRUNCATE-RECOVERY", nil,
		func(_ int, v *proto.TruncateRecovery) { m.onTruncateRecovery(v) })
	proto.RegisterPriority(r, "QUERY-DECISION",
		func(v *queryDecision) int { return 28 + 4*len(v.Regions) },
		func(src int, v *queryDecision) { m.onQueryDecision(src, v) })

	// Data recovery (§5.4).
	proto.Register(r, "DATA-REC-DONE", nil,
		func(_ int, v *dataRecoveryDone) { m.onDataRecoveryDone(v) })

	// State-integrity auditing. Priority: audits run right after heals and
	// recoveries (queues at their fullest) and hold a region fence while in
	// flight, so they must not sit in coalescing queues.
	proto.RegisterPriority(r, "AUDIT-SNAP",
		func(v *proto.AuditSnap) int { return 24 + 16*len(v.Headers) },
		func(src int, v *proto.AuditSnap) { m.onAuditSnap(src, v) })
	proto.RegisterPriority(r, "AUDIT-SNAP-REPLY",
		func(v *proto.AuditSnapReply) int { return 48 + 16*len(v.Blocks) },
		func(src int, v *proto.AuditSnapReply) { m.onAuditSnapReply(src, v) })
	proto.RegisterPriority(r, "AUDIT-OBJECTS-REQ", nil,
		func(src int, v *proto.AuditObjectsReq) { m.onAuditObjectsReq(src, v) })
	proto.RegisterPriority(r, "AUDIT-OBJECTS-REPLY",
		func(v *proto.AuditObjectsReply) int { return 24 + 8*len(v.Objects) },
		func(src int, v *proto.AuditObjectsReply) { m.onAuditObjectsReply(src, v) })
	proto.RegisterPriority(r, "AUDIT-REPAIR", nil,
		func(src int, v *proto.AuditRepair) { m.onAuditRepair(src, v) })
	proto.RegisterPriority(r, "AUDIT-REPAIR-DONE", nil,
		func(src int, v *proto.AuditRepairDone) { m.onAuditRepairDone(src, v) })

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

	// Application messages (function shipping, §6.2).
	proto.Register(r, "APP", nil,
		func(src int, v *appMsg) {
			if m.appHandler != nil {
				m.appHandler(src, v.Body)
			}
		})

	// Send-only size models for RPC bodies nested in envelopes/replies.
	proto.Register[*allocSlotReq](r, "ALLOC-SLOT", nil, nil)
	proto.Register[*allocSlotResp](r, "ALLOC-SLOT-RESP", nil, nil)
	proto.Register[*proto.MappingReq](r, "MAPPING-REQ", nil, nil)
	proto.Register[*proto.AllocRegionReq](r, "ALLOC-REGION-REQ", nil, nil)
	proto.Register[*proto.AllocRegionResp](r, "ALLOC-REGION-RESP", nil, nil)
}

// registerRPCHandlers wires the envelope-carried request types to their
// service methods (the old onRPC switch).
func (t *transport) registerRPCHandlers() {
	m := t.m
	registerRPC(t, "ALLOC-SLOT", m.rpcAllocSlot)
	registerRPC(t, "VALIDATE", m.rpcValidate)
	registerRPC(t, "MAPPING", m.rpcMapping)
	registerRPC(t, "ALLOC-REGION",
		func(from int, id uint64, req *proto.AllocRegionReq) { m.onAllocRegionReq(from, id, req) })
}
