package core

import (
	"errors"

	"farm/internal/history"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
	"farm/internal/trace"
)

// mtl identifies a transaction without its configuration component:
// coordinator machine, thread, and thread-local id. Local ids are monotonic
// per thread across configurations, so the triple is unique; truncation
// piggybacks reference transactions this way (Table 1).
type mtl struct {
	m, t  uint16
	local uint64
}

func mtlOf(id proto.TxID) mtl { return mtl{m: id.Machine, t: id.Thread, local: id.Local} }

// readEntry records one object read during execution.
type readEntry struct {
	addr    proto.Addr
	version uint64
	size    int
	data    []byte
}

// writeEntry is a buffered write.
type writeEntry struct {
	addr      proto.Addr
	version   uint64 // version observed at read/alloc time (lock target)
	value     []byte
	allocated bool // allocation bit after commit (false for frees)
	isAlloc   bool // freshly allocated slot: released back on abort
}

// Tx is a FaRM transaction. The thread that begins a transaction is its
// coordinator (§3). All methods are asynchronous: they charge CPU to the
// coordinator thread and deliver results through callbacks; a thread can
// run several transactions concurrently, like FaRM's event loops.
type Tx struct {
	m      *Machine
	thread int

	reads  map[proto.Addr]*readEntry
	writes map[proto.Addr]*writeEntry
	order  []proto.Addr // write order, for deterministic record layout

	started  sim.Time
	finished bool

	// ctx is the root trace span of a sampled transaction (zero when this
	// transaction is untraced); reads and commit phases hang off it.
	ctx trace.Ctx

	// hrec is the per-transaction history recording handle (nil when
	// recording is disabled — the hist* hooks then cost one nil check).
	hrec *history.TxRec
}

// Begin starts a transaction coordinated by worker thread `thread` of m.
// When tracing is enabled, the deterministic N-of-every-M sampler decides
// here whether this transaction gets a root span.
func (m *Machine) Begin(thread int) *Tx {
	t := &Tx{
		m:       m,
		thread:  thread % m.c.Opts.Threads,
		reads:   make(map[proto.Addr]*readEntry),
		writes:  make(map[proto.Addr]*writeEntry),
		started: m.c.Eng.Now(),
	}
	if m.trb != nil && m.trb.SampleTx() {
		t.ctx = m.trb.Begin("tx", "tx", t.started, 0, 0, int64(t.thread))
	}
	if m.c.Hist != nil {
		t.hrec = m.c.Hist.Open(m.ID, t.thread, t.started)
	}
	return t
}

// histRead records a fresh object read with the version it observed.
func (t *Tx) histRead(addr proto.Addr, version uint64) {
	if t.hrec != nil {
		t.hrec.Read(addr, version)
	}
}

// histWrite records (or updates) a buffered write.
func (t *Tx) histWrite(addr proto.Addr, version uint64, value []byte, alloc, free bool) {
	if t.hrec != nil {
		t.hrec.Write(addr, version, value, alloc, free)
	}
}

// histFinish reports the transaction's outcome to the recorder
// (idempotent; safe against commit-path callback re-wrapping).
func (t *Tx) histFinish(o history.Outcome) {
	if t.hrec != nil {
		t.hrec.Finish(t.m.c.Eng.Now(), o)
	}
}

// endTxSpan closes the transaction's root span (no-op when untraced).
func (t *Tx) endTxSpan(err error) {
	if !t.ctx.Valid() {
		return
	}
	var arg int64
	if err != nil {
		arg = 1 // aborted
	}
	t.m.trb.End(t.ctx, t.m.c.Eng.Now(), arg)
	t.ctx = trace.Ctx{}
}

// maxReadRetries bounds spinning on locked objects before reporting a
// conflict to the application.
const maxReadRetries = 64

// Mapping retries use capped exponential backoff with a retry budget:
// transient staleness (a reconfiguration in flight) resolves within a few
// short retries, while a permanently unresolvable region burns through the
// budget in bounded time and surfaces ErrUnavailable instead of spinning.
const (
	mappingBackoffBase = 100 * sim.Microsecond
	mappingBackoffCap  = 2 * sim.Millisecond
	maxMappingRetries  = 40
)

// mappingBackoff returns the delay before mapping retry number retry:
// base doubled per attempt, capped (no jitter — the simulation needs
// determinism, and retries are already desynchronized by fetch latency).
func mappingBackoff(retry int) sim.Time {
	d := mappingBackoffBase
	for i := 0; i < retry && d < mappingBackoffCap; i++ {
		d *= 2
	}
	if d > mappingBackoffCap {
		d = mappingBackoffCap
	}
	return d
}

// Read reads size payload bytes of the object at addr. Individual reads
// are atomic and see only committed data (§3); consistency across objects
// is enforced at commit time by validation.
func (t *Tx) Read(addr proto.Addr, size int, cb func(data []byte, err error)) {
	op := t.m.getReadOp(t.thread, addr, size, cb)
	op.tx = t
	// Read-your-writes, then repeated reads return the same data (§3):
	// both are served from the transaction's own buffers on its thread.
	if w, ok := t.writes[addr]; ok {
		op.own = &w.value
	} else if r, ok := t.reads[addr]; ok {
		op.own = &r.data
	}
	if op.own != nil {
		t.m.OnThread(t.thread, t.m.c.Opts.CPULocal, op.ownFn)
		return
	}
	if t.ctx.Valid() {
		op.rctx = t.m.trb.Begin("tx", "read", t.m.c.Eng.Now(), t.ctx.Trace, t.ctx.Span, int64(addr.Region))
	}
	op.start()
}

// Write buffers a write of value to addr. The object must have been read
// (or allocated) by this transaction first, so the coordinator knows the
// version to lock at — FaRM applications read objects before updating
// them.
func (t *Tx) Write(addr proto.Addr, value []byte) {
	if w, ok := t.writes[addr]; ok {
		w.value = append(w.value[:0], value...)
		t.histWrite(addr, w.version, value, w.isAlloc, !w.allocated)
		return
	}
	r, ok := t.reads[addr]
	if !ok {
		panic("farm: Write of object not read or allocated in this transaction")
	}
	t.writes[addr] = &writeEntry{
		addr:      addr,
		version:   r.version,
		value:     append([]byte(nil), value...),
		allocated: true,
	}
	t.order = append(t.order, addr)
	t.histWrite(addr, r.version, value, false, false)
}

// Alloc allocates a new object of the given payload size and buffers its
// first write. If hint is non-nil the object is placed in the same region
// as the hint (locality, §3); otherwise a region with a local primary is
// preferred. The object becomes visible only when the transaction commits.
func (t *Tx) Alloc(size int, value []byte, hint *proto.Addr, cb func(addr proto.Addr, err error)) {
	regions := t.m.allocCandidates(hint)
	if len(regions) == 0 {
		t.m.OnThread(t.thread, t.m.c.Opts.CPULocal, func() { cb(proto.Addr{}, ErrNoSpace) })
		return
	}
	t.tryAlloc(regions, 0, size, value, cb)
}

func (t *Tx) tryAlloc(regions []uint32, i, size int, value []byte, cb func(proto.Addr, error)) {
	if i >= len(regions) {
		cb(proto.Addr{}, ErrNoSpace)
		return
	}
	region := regions[i]
	t.m.allocSlot(t.thread, region, size, func(off uint32, version uint64, err error) {
		if err != nil {
			t.tryAlloc(regions, i+1, size, value, cb)
			return
		}
		addr := proto.Addr{Region: region, Off: off}
		t.writes[addr] = &writeEntry{
			addr:      addr,
			version:   version,
			value:     append([]byte(nil), value...),
			allocated: true,
			isAlloc:   true,
		}
		t.order = append(t.order, addr)
		t.histWrite(addr, version, value, true, false)
		cb(addr, nil)
	})
}

// Free deallocates the object at addr. The object must have been read in
// this transaction. The allocation-bit clear is replicated through the
// commit like any write (§5.5); the slot returns to the primary's free
// list when the commit is applied.
func (t *Tx) Free(addr proto.Addr) {
	r, ok := t.reads[addr]
	if !ok {
		panic("farm: Free of object not read in this transaction")
	}
	t.writes[addr] = &writeEntry{
		addr:      addr,
		version:   r.version,
		value:     make([]byte, len(r.data)),
		allocated: false,
	}
	t.order = append(t.order, addr)
	t.histWrite(addr, r.version, t.writes[addr].value, false, true)
}

// ReadSetSize and WriteSetSize expose execution-phase footprints.
func (t *Tx) ReadSetSize() int  { return len(t.reads) }
func (t *Tx) WriteSetSize() int { return len(t.writes) }

// Thread returns the coordinator thread index running this transaction.
func (t *Tx) Thread() int { return t.thread }

// Coordinator returns the machine coordinating this transaction.
func (t *Tx) Coordinator() *Machine { return t.m }

// Abort abandons a transaction during the execute phase. Before Commit no
// remote state exists — reads are one-sided and take no locks (§3) — so
// aborting releases locally allocated slots and finishes the transaction.
// Calling Abort after Commit (or twice) panics, like Commit.
func (t *Tx) Abort() {
	if t.finished {
		panic(errTxDone)
	}
	t.finished = true
	t.releaseAllocs()
	t.endTxSpan(errTxDone)
	t.histFinish(history.UserAborted)
	t.m.c.Counters.Inc("tx_user_abort", 1)
}

// abortLocal cleans up execute-phase side effects (allocated slots) for a
// transaction abandoned before or during commit.
func (t *Tx) releaseAllocs() {
	for _, w := range t.writes {
		if w.isAlloc {
			t.m.releaseSlot(w.addr)
		}
	}
}

// allocCandidates orders regions to try for an allocation.
func (m *Machine) allocCandidates(hint *proto.Addr) []uint32 {
	if hint != nil {
		return []uint32{hint.Region}
	}
	var local, remote []uint32
	for _, id := range regionKeys(m.mappings) {
		rm := m.mappings[id]
		if len(rm.Replicas) == 0 {
			continue
		}
		if int(rm.Replicas[0]) == m.ID {
			local = append(local, id)
		} else {
			remote = append(remote, id)
		}
	}
	// Deterministic order: regionKeys is ascending, so both halves are.
	return append(local, remote...)
}

// allocSlotReq and friends are the slot-reservation RPCs between a
// coordinator and a region's primary (the free lists live only at the
// primary, §5.5).
type allocSlotReq struct {
	Region uint32
	Size   int
}

type allocSlotResp struct {
	Region  uint32
	OK      bool
	Off     uint32
	Version uint64
	ReqID   uint64
}

type releaseSlotReq struct {
	Region uint32
	Off    uint32
}

// allocSlot reserves a slot in region (locally or via the primary).
func (m *Machine) allocSlot(thread int, region uint32, size int, cb func(off uint32, version uint64, err error)) {
	p := m.primaryOf(region)
	if p == -1 {
		cb(0, 0, ErrUnavailable)
		return
	}
	if p == m.ID {
		m.OnThread(thread, m.c.Opts.CPULocal, func() {
			off, ver, err := m.allocSlotLocal(region, size)
			cb(off, ver, err)
		})
		return
	}
	req := &allocSlotReq{Region: region, Size: size}
	id := m.nextRPC
	m.nextRPC++
	m.rpcWaiters[id] = func(resp interface{}) {
		r := resp.(*allocSlotResp)
		if !r.OK {
			cb(0, 0, ErrNoSpace)
			return
		}
		cb(r.Off, r.Version, nil)
	}
	m.sendFromThread(thread, p, &rpcEnvelope{ID: id, From: m.ID, Body: req})
}

// allocSlotLocal pops a slot from the local primary's free list.
func (m *Machine) allocSlotLocal(region uint32, size int) (uint32, uint64, error) {
	rep := m.replicas[region]
	if rep == nil || !rep.primary {
		return 0, 0, ErrUnavailable
	}
	if rep.allocRecovering {
		return 0, 0, ErrUnavailable
	}
	off, ok := rep.alloc.Alloc(size)
	if !ok {
		return 0, 0, ErrNoSpace
	}
	word := regionmem.ReadHeader(rep.mem, off)
	return uint32(off), regionmem.Version(word), nil
}

// releaseSlot returns an execute-phase allocation after an abort.
func (m *Machine) releaseSlot(addr proto.Addr) {
	p := m.primaryOf(addr.Region)
	if p == m.ID {
		if rep := m.replicas[addr.Region]; rep != nil && rep.primary && !rep.allocRecovering {
			rep.alloc.Free(int(addr.Off))
		}
		return
	}
	if p >= 0 && m.isMember(p) {
		m.send(p, &releaseSlotReq{Region: addr.Region, Off: addr.Off})
	}
	// If the primary is gone, allocator recovery's scan reclaims the slot
	// (its allocation bit was never set).
}

// rpcEnvelope carries a request id so responses can be matched, and
// piggybacks the sender's causal trace context so the service side can
// parent its work (and its reply) on the requesting span even when the
// envelope reaches it outside a traced batch.
type rpcEnvelope struct {
	ID   uint64
	From int
	Body interface{}
	Ctx  trace.Ctx
}

// rpcReply pairs the response with the request id.
type rpcReply struct {
	ID   uint64
	Body interface{}
}

// errTxDone guards double commits.
var errTxDone = errors.New("farm: transaction already finished")
