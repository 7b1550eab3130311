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

// txEntry is one object a transaction has touched: a row of its read/write
// table. An object is in the read set once a fresh read of it was delivered
// and in the write set once it was written, allocated or freed; it can be in
// both.
type txEntry struct {
	addr proto.Addr
	// version is what validation checks and LOCK locks at: the version the
	// last fresh read observed, frozen by the first write (or the version
	// the allocator reported for a fresh slot).
	version uint64
	// data is the library's private copy of the payload a fresh read
	// fetched. Repeated reads are served from it; it is never handed out.
	data []byte
	// value is the buffered write. It flows by reference into the commit
	// records' ObjectWrite.Value and is copied once, into the ring frame.
	value []byte
	// wnext chains the written entries in the order they were first
	// written, which is the order of the commit records' write lists.
	wnext int32

	read, written bool
	allocated     bool // allocation bit after commit (false for frees)
	isAlloc       bool // freshly allocated slot: released back on abort
}

// Tx is a FaRM transaction. The thread that begins a transaction is its
// coordinator (§3). All methods are asynchronous: they charge CPU to the
// coordinator thread and deliver results through callbacks; a thread can
// run several transactions concurrently, like FaRM's event loops.
type Tx struct {
	m      *Machine
	thread int

	// set is the read/write table in insertion order. It starts on inline,
	// so Begin allocates the Tx and nothing else and a transaction touching
	// a few objects never allocates a table. Entries move when set grows:
	// hold indexes, not pointers, across anything that can insert.
	set    []txEntry
	inline [4]txEntry
	// index finds an entry by address once set is too long to scan: open
	// addressing over positions+1 (0 = empty), at most half full.
	index           []int32
	nReads, nWrites int
	firstW, lastW   int32 // ends of the wnext chain (-1 = empty)

	// slab is the unused tail of the transaction's newest byte chunk and
	// chunk that chunk's size (see carve).
	slab  []byte
	chunk int

	started  sim.Time
	finished bool

	// reading counts fresh reads in flight; crowded: two were, since none.
	// [aloneLo, aloneHi) are the entries of the last fresh read if it was
	// delivered and ran alone (empty otherwise): a read-only commit
	// serializes at that read. A span read's entries are all its objects.
	reading          int
	crowded          bool
	aloneLo, aloneHi int32

	// Commit-time validation (validateSet): the read-write commit (nil for a
	// read-only one, which reports through roCb), verdicts still due, and
	// whether one already failed.
	ct        *coordTx
	roCb      func(error)
	valLeft   int
	valFailed bool

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
		firstW:  -1,
		lastW:   -1,
		started: m.c.Eng.Now(),
	}
	t.set = t.inline[:0]
	if m.trb != nil && m.trb.SampleTx() {
		t.ctx = m.trb.Begin("tx", "tx", t.started, 0, 0, int64(t.thread))
	}
	if m.c.Hist != nil {
		t.hrec = m.c.Hist.Open(m.ID, t.thread, t.started)
	}
	return t
}

// scanMax is the longest table find scans instead of indexing.
const scanMax = 8

func addrHash(a proto.Addr) uint32 {
	return uint32((uint64(a.Region)<<32 | uint64(a.Off)) * 0x9E3779B97F4A7C15 >> 32)
}

// find returns addr's position in the table, or -1.
func (t *Tx) find(addr proto.Addr) int {
	if t.index == nil {
		for i := range t.set {
			if t.set[i].addr == addr {
				return i
			}
		}
		return -1
	}
	mask := uint32(len(t.index) - 1)
	for h := addrHash(addr) & mask; ; h = (h + 1) & mask {
		k := t.index[h]
		if k == 0 {
			return -1
		}
		if t.set[k-1].addr == addr {
			return int(k - 1)
		}
	}
}

// entry returns addr's position in the table, appending a blank entry if it
// has none.
func (t *Tx) entry(addr proto.Addr) int {
	i := t.find(addr)
	if i >= 0 {
		return i
	}
	i = len(t.set)
	t.set = append(t.set, txEntry{addr: addr, wnext: -1})
	switch {
	case i < scanMax:
	case 2*len(t.set) > len(t.index):
		// First index, or half full: quadruple and re-insert everything.
		t.index = make([]int32, max(4*scanMax, 4*len(t.index)))
		for j := range t.set {
			t.indexPut(j)
		}
	default:
		t.indexPut(i)
	}
	return i
}

func (t *Tx) indexPut(i int) {
	mask := uint32(len(t.index) - 1)
	h := addrHash(t.set[i].addr) & mask
	for t.index[h] != 0 {
		h = (h + 1) & mask
	}
	t.index[h] = int32(i + 1)
}

// maxChunk bounds a slab chunk; requests of half of it or more get an
// allocation of their own.
const maxChunk = 4096

// carve returns n zeroed bytes owned by this transaction, capacity-capped so
// that appending to them cannot reach a neighbour. The payload bytes a
// transaction keeps or hands out (private read copies, the copies callbacks
// receive, buffered write values) are carved from a few GC-owned chunks
// instead of allocated one by one: the first chunk is four times the first
// request, each later one twice the last, up to maxChunk. A chunk belongs to
// one transaction, is never reused, and dies with the last slice into it.
func (t *Tx) carve(n int) []byte {
	if n > len(t.slab) {
		if n >= maxChunk/2 {
			return make([]byte, n)
		}
		t.chunk = min(max(4*n, 2*t.chunk), maxChunk)
		t.slab = make([]byte, t.chunk)
	}
	b := t.slab[:n:n]
	t.slab = t.slab[n:]
	return b
}

// copyOut returns a copy of src the caller may keep and mutate.
func (t *Tx) copyOut(src []byte) []byte {
	b := t.carve(len(src))
	copy(b, src)
	return b
}

// readLanded retires a fresh read that was delivered, with data or an
// error, and reports whether it ran alone: no other fresh read of t was in
// flight at any time between its issue and now.
func (t *Tx) readLanded() bool {
	alone := !t.crowded
	t.reading--
	t.crowded = t.crowded && t.reading > 0
	return alone
}

// noteRead enters a delivered fresh read into the read set and returns its
// entry. data becomes the entry's private copy.
func (t *Tx) noteRead(addr proto.Addr, version uint64, data []byte) int32 {
	i := t.entry(addr) // may move set: index it afterwards
	e := &t.set[i]
	if !e.read {
		e.read = true
		t.nReads++
	}
	if !e.written {
		e.version = version
	}
	e.data = data
	t.histRead(addr, version)
	return int32(i)
}

// view is the entry's payload as the transaction sees it: its buffered
// write, or else what it read.
func (e *txEntry) view() []byte {
	if e.written {
		return e.value
	}
	return e.data
}

// writeEntry returns entry i after making it part of the write set, at the
// end of the write order, if it is not yet.
func (t *Tx) writeEntry(i int) *txEntry {
	e := &t.set[i]
	if !e.written {
		e.written = true
		t.nWrites++
		if t.lastW < 0 {
			t.firstW = int32(i)
		} else {
			t.set[t.lastW].wnext = int32(i)
		}
		t.lastW = int32(i)
	}
	return e
}

// setValue stores a copy of value as e's buffered write, in place when the
// bytes e already has are enough.
func (t *Tx) setValue(e *txEntry, value []byte) {
	if cap(e.value) < len(value) {
		e.value = t.carve(len(value))
	}
	e.value = e.value[:len(value)]
	copy(e.value, value)
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
	return min(mappingBackoffBase<<min(retry, 16), mappingBackoffCap)
}

// ReadHandler receives the outcome of an object read. A reader that makes
// several dependent reads (a hash chain, a tree descent) implements it on
// its per-call state, so a hop costs no closure; a plain callback is a
// ReadFunc.
type ReadHandler interface {
	ReadDone(data []byte, err error)
}

// ReadFunc adapts a callback to ReadHandler.
type ReadFunc func(data []byte, err error)

func (f ReadFunc) ReadDone(data []byte, err error) { f(data, err) }

// Read reads size payload bytes of the object at addr. Individual reads
// are atomic and see only committed data (§3); consistency across objects
// is enforced at commit time by validation. data belongs to the callback:
// it may change it and keep it, and the transaction never touches it again.
func (t *Tx) Read(addr proto.Addr, size int, cb func(data []byte, err error)) {
	t.ReadTo(addr, size, ReadFunc(cb))
}

// ReadTo is Read delivering to a ReadHandler.
func (t *Tx) ReadTo(addr proto.Addr, size int, h ReadHandler) {
	op := t.m.getReadOp(t.thread, addr, size, h)
	op.tx = t
	// Read-your-writes, then repeated reads return the same data (§3):
	// both are served from the transaction's own buffers on its thread.
	if op.own = t.find(addr); op.own >= 0 {
		t.m.OnThread(t.thread, cpuLocal, op.ownFn)
		return
	}
	t.issue(op)
}

// ReadSpanTo is LockFreeReadSpanTo inside the transaction: one verb reads
// the n objects, and the read set gets the ones h names, at the versions
// that verb saw. Objects the transaction already holds are served from its
// own buffers and keep their entries.
func (t *Tx) ReadSpanTo(addr proto.Addr, size, n int, h SpanHandler) {
	op := t.m.getReadOp(t.thread, addr, size, nil)
	op.sh, op.n, op.tx = h, n, t
	t.issue(op)
}

// issue starts a fresh read.
func (t *Tx) issue(op *readOp) {
	if t.ctx.Valid() {
		op.rctx = t.m.trb.Begin("tx", "read", t.m.c.Eng.Now(), t.ctx.Trace, t.ctx.Span, int64(op.addr.Region))
	}
	t.reading++
	t.crowded = t.crowded || t.reading > 1
	t.aloneLo, t.aloneHi = 0, 0
	op.start()
}

// Write buffers a write of value to addr. The object must have been read
// (or allocated) by this transaction first, so the coordinator knows the
// version to lock at — FaRM applications read objects before updating
// them.
func (t *Tx) Write(addr proto.Addr, value []byte) {
	i := t.find(addr)
	if i < 0 {
		panic("farm: Write of object not read or allocated in this transaction")
	}
	e := &t.set[i]
	if !e.written {
		e.allocated = true // a read object's first write
	}
	t.writeEntry(i)
	t.setValue(e, value)
	t.histWrite(addr, e.version, value, e.isAlloc, !e.allocated)
}

// Alloc allocates a new object of the given payload size and buffers its
// first write. If hint is non-nil the object is placed in the same region
// as the hint (locality, §3); otherwise a region with a local primary is
// preferred. The object becomes visible only when the transaction commits.
func (t *Tx) Alloc(size int, value []byte, hint *proto.Addr, cb func(addr proto.Addr, err error)) {
	regions := t.m.allocCandidates(hint)
	if len(regions) == 0 {
		t.m.OnThread(t.thread, cpuLocal, func() { cb(proto.Addr{}, ErrNoSpace) })
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
		e := t.writeEntry(t.entry(addr))
		e.version, e.allocated, e.isAlloc = version, true, true
		t.setValue(e, value)
		t.histWrite(addr, version, value, true, false)
		cb(addr, nil)
	})
}

// Free deallocates the object at addr. The object must have been read in
// this transaction. The allocation-bit clear is replicated through the
// commit like any write (§5.5); the slot returns to the primary's free
// list when the commit is applied.
func (t *Tx) Free(addr proto.Addr) {
	i := t.find(addr)
	if i < 0 || !t.set[i].read {
		panic("farm: Free of object not read in this transaction")
	}
	e := t.writeEntry(i)
	e.value, e.allocated = t.carve(len(e.data)), false
	t.histWrite(addr, e.version, e.value, false, true)
}

// ReadSetSize and WriteSetSize expose execution-phase footprints.
func (t *Tx) ReadSetSize() int  { return t.nReads }
func (t *Tx) WriteSetSize() int { return t.nWrites }

// Holds reports whether addr is in the transaction's table, so that a read
// of it is served from the transaction's own buffers.
func (t *Tx) Holds(addr proto.Addr) bool { return t.find(addr) >= 0 }

// Wrote reports whether addr is in the write set, so that a read of it
// returns this transaction's buffered bytes rather than committed ones.
func (t *Tx) Wrote(addr proto.Addr) bool {
	i := t.find(addr)
	return i >= 0 && t.set[i].written
}

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

// releaseAllocs cleans up execute-phase side effects (allocated slots) for a
// transaction abandoned before or during commit.
func (t *Tx) releaseAllocs() {
	for i := t.firstW; i >= 0; i = t.set[i].wnext {
		if e := &t.set[i]; e.isAlloc {
			t.m.releaseSlot(e.addr)
		}
	}
}

// allocCandidates orders regions to try for an allocation.
func (m *Machine) allocCandidates(hint *proto.Addr) []uint32 {
	if hint != nil {
		return []uint32{hint.Region}
	}
	var local, remote []uint32
	for i := range m.regions {
		rm := m.regions[i].mapping
		if rm == nil || len(rm.Replicas) == 0 {
			continue
		}
		if int(rm.Replicas[0]) == m.ID {
			local = append(local, uint32(i))
		} else {
			remote = append(remote, uint32(i))
		}
	}
	// Both halves ascend, like the table.
	return append(local, remote...)
}

// allocSlotReq and friends are the slot-reservation RPCs between a
// coordinator and a region's primary (the free lists live only at the
// primary, §5.5).
type allocSlotReq struct {
	ID     uint64
	Region uint32
	Size   int
}

type allocSlotResp struct {
	Region  uint32
	OK      bool
	Off     uint32
	Version uint64
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
		m.OnThread(thread, cpuLocal, func() {
			off, ver, err := m.allocSlotLocal(region, size)
			cb(off, ver, err)
		})
		return
	}
	// A reservation the primary never answers reports ErrUnavailable, and
	// its transaction tries the next candidate region; a late answer is
	// dropped, and its slot left to allocator recovery.
	req := &allocSlotReq{Region: region, Size: size}
	req.ID = m.call(p, req, func(resp interface{}, err error) {
		if err != nil {
			m.c.Counters.Inc("alloc_slot_stalled", 1)
			cb(0, 0, err)
			return
		}
		r := resp.(*allocSlotResp)
		if !r.OK {
			cb(0, 0, ErrNoSpace)
			return
		}
		cb(r.Off, r.Version, nil)
	})
	m.sendFromThread(thread, p, req)
}

// allocSlotLocal pops a slot from the local primary's free list.
func (m *Machine) allocSlotLocal(region uint32, size int) (uint32, uint64, error) {
	rep := m.replica(region)
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
		if rep := m.replica(addr.Region); rep != nil && rep.primary && !rep.allocRecovering {
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

// rpcReply answers a slot reservation, a region allocation or an
// application call with the call id its request carried.
type rpcReply struct {
	ID   uint64
	Body interface{}
}

// errTxDone guards double commits.
var errTxDone = errors.New("farm: transaction already finished")
