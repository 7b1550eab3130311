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
//
// A Tx is recycled, with the bytes it handed out, once it finished: it, and
// every byte it handed out — read copies, Span.Own copies, the Get values
// and Scan pairs built on them — is valid until its Commit callback or
// Abort returns. A caller that keeps bytes longer copies them.
type Tx struct {
	m      *Machine
	thread int

	// set is the read/write table in insertion order, made for four
	// entries with the Tx. Entries move when set grows: hold indexes, not
	// pointers, across anything that can insert. A recycled Tx keeps the
	// grown set and its index.
	set []txEntry
	// index finds an entry by address once set is longer than scanMax:
	// open addressing over positions+1 (0 = empty), at most half full.
	index           []int32
	nReads, nWrites int
	firstW, lastW   int32 // ends of the wnext chain (-1 = empty)

	// chunks are the byte chunks the transaction carves from (see carve),
	// taken from its machine's chunk pool in carve order and given back
	// when it is released; slab is the unused tail of the newest.
	chunks [][]byte
	slab   []byte

	// reading counts fresh reads in flight; crowded: two were, since none.
	// [aloneLo, aloneHi) are the entries of the last fresh read if it was
	// delivered and ran alone (empty otherwise): a read-only commit
	// serializes at that read. A span read's entries are all its objects.
	reading          int
	aloneLo, aloneHi int32

	// Commit-time validation (validateSet): the read-write commit (nil for a
	// read-only one, which reports through report), verdicts still due, and
	// whether one already failed (valFailed).
	ct      *coordTx
	valLeft int

	// The release rule (release): appCb is the application's commit
	// callback and reportFn report, bound once; appDone says the
	// application is finished with the transaction (its commit callback or
	// Abort returned), committing that a coordTx holds it (newCoordTx until
	// putCoordTx), and live counts the callbacks still due to it: reads,
	// validation verdicts and allocations in flight.
	appCb    func(error)
	reportFn func(error)
	live     int

	// ctx is the root trace span of a sampled transaction (zero when this
	// transaction is untraced); reads and commit phases hang off it.
	ctx trace.Ctx

	// hrec is the per-transaction history recording handle (nil when
	// recording is disabled — the hist* hooks then cost one nil check).
	hrec *history.TxRec

	// finished: Commit or Abort was called. The other flags belong to the
	// groups above; they sit together to keep the Tx small.
	finished, crowded, valFailed, appDone, committing bool
}

// Begin starts a transaction coordinated by worker thread `thread` of m,
// on a Tx from m's pool, valid until its Commit callback or Abort returns.
// When tracing is enabled, the deterministic N-of-every-M sampler decides
// here whether this transaction gets a root span.
func (m *Machine) Begin(thread int) *Tx {
	t := m.txs.Get()
	t.thread = thread % m.c.Opts.Threads
	t.firstW, t.lastW = -1, -1
	now := m.c.Eng.Now()
	if m.trb != nil && m.trb.SampleTx() {
		t.ctx = m.trb.Begin("tx", "tx", now, 0, 0, int64(t.thread))
	}
	if m.c.Hist != nil {
		t.hrec = m.c.Hist.Open(m.ID, t.thread, now)
	}
	return t
}

// settle retires one callback due to t (a read, a verdict, an allocation)
// once it has run.
func (t *Tx) settle() {
	t.live--
	t.release()
}

// release returns t to its machine's pool once nothing can reach it any
// more: the application is finished with it, no coordTx holds it and no
// callback is due to it. Its chunks go back to the machine's chunk pool;
// everything else is reset but the grown table and its index. A Tx that
// recovery decides, that dies with its machine or that the application
// drops without Commit or Abort never gets here, and goes to the collector
// with its chunks.
func (t *Tx) release() {
	if !t.appDone || t.committing || t.live > 0 {
		return
	}
	m := t.m
	clear(t.set)
	if len(t.set) > scanMax {
		clear(t.index)
	}
	m.chunks.put(t.chunks, m.c.Eng.Now())
	clear(t.chunks)
	*t = Tx{m: m, set: t.set[:0], index: t.index, chunks: t.chunks[:0], reportFn: t.reportFn}
	m.txs.Put(t)
}

// scanMax is the longest table find scans instead of indexing.
const scanMax = 8

func addrHash(a proto.Addr) uint32 {
	return uint32((uint64(a.Region)<<32 | uint64(a.Off)) * 0x9E3779B97F4A7C15 >> 32)
}

// find returns addr's position in the table, or -1.
func (t *Tx) find(addr proto.Addr) int {
	if len(t.set) <= scanMax {
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
	switch n := len(t.set); {
	case n <= scanMax:
	case 2*n > len(t.index):
		// First index, or half full: quadruple and re-insert everything.
		t.index = make([]int32, max(4*scanMax, 4*len(t.index)))
		for j := range t.set {
			t.indexPut(j)
		}
	case n == scanMax+1:
		// The first use of an index kept from an earlier transaction.
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
// receive, buffered write values) are carved from a few chunks instead of
// allocated one by one: the first chunk holds twice the first request, each
// later one twice the last, up to maxChunk, each taken from the machine's
// chunk pool and cleared (nextChunk). A request of maxChunk/2 or more keeps
// its own allocation, which is not pooled.
func (t *Tx) carve(n int) []byte {
	if n > len(t.slab) {
		if n >= maxChunk/2 {
			return make([]byte, n)
		}
		t.nextChunk(n)
	}
	b := t.slab[:n:n]
	t.slab = t.slab[n:]
	return b
}

// nextChunk makes a chunk from the pool the transaction's slab: the size
// class of twice n, or twice the last chunk if that is larger.
func (t *Tx) nextChunk(n int) {
	size := 2 * n
	if k := len(t.chunks); k > 0 {
		size = max(size, 2*len(t.chunks[k-1]))
	}
	t.slab = t.m.chunks.get(chunkClass(size))
	t.chunks = append(t.chunks, t.slab)
}

// The chunk pool's size classes: minChunk << c bytes for class c, up to
// maxChunk.
const (
	minChunkShift = 7
	minChunk      = 1 << minChunkShift
	chunkClasses  = 12 - minChunkShift + 1 // maxChunk is 1 << 12
)

// chunkClass returns the smallest class that holds size bytes, or the
// largest.
func chunkClass(size int) int {
	c := 0
	for c < chunkClasses-1 && minChunk<<c < size {
		c++
	}
	return c
}

// chunkPool is a machine's free chunks, one list per size class, which its
// transactions carve from (Tx.carve) and give back when they are released.
// It keeps about as many chunks of a class as the machine's transactions
// held at once lately, so a burst — set-up's bulk loads — is shed: inUse
// counts the chunks transactions hold, peak the most they held since the
// current window began, at the first release chunkWindow of virtual time
// after the last one did, and last the most in the window before. Each
// release sheds one free chunk of every class holding more, in use and free
// together, than the larger of the two peaks. A checked pool poisons
// every chunk it takes back.
type chunkPool struct {
	free    [chunkClasses][][]byte
	inUse   [chunkClasses]int
	peak    [chunkClasses]int
	last    [chunkClasses]int
	window  sim.Time // when the current window began
	checked bool
}

// chunkWindow is the virtual time a chunk pool's peak spans, at least.
const chunkWindow = 8 * sim.Millisecond

// get takes a cleared chunk of class c, or makes one.
func (p *chunkPool) get(c int) []byte {
	if p.inUse[c]++; p.inUse[c] > p.peak[c] {
		p.peak[c] = p.inUse[c]
	}
	if k := len(p.free[c]); k > 0 {
		b := p.free[c][k-1]
		p.free[c][k-1] = nil
		p.free[c] = p.free[c][:k-1]
		clear(b)
		return b
	}
	return make([]byte, minChunk<<c)
}

// put takes back the chunks one transaction released at now held, then
// sheds.
func (p *chunkPool) put(chunks [][]byte, now sim.Time) {
	for _, b := range chunks {
		if p.checked {
			poison(b)
		}
		c := chunkClass(len(b))
		p.inUse[c]--
		p.free[c] = append(p.free[c], b)
	}
	if now-p.window >= chunkWindow {
		p.window = now
		p.last, p.peak = p.peak, p.inUse
	}
	for c := range p.free {
		if k := len(p.free[c]); k > 0 && p.inUse[c]+k > max(p.peak[c], p.last[c]) {
			p.free[c][k-1] = nil
			p.free[c] = p.free[c][:k-1]
		}
	}
}

// poison fills released bytes with 0xA5.
func poison(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
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
// is enforced at commit time by validation. data is the callback's to
// change, and the transaction never touches it again; it is valid until the
// transaction finishes (its Commit callback or Abort returns).
func (t *Tx) Read(addr proto.Addr, size int, cb func(data []byte, err error)) {
	t.ReadTo(addr, size, ReadFunc(cb))
}

// ReadTo is Read delivering to a ReadHandler, under the same rule: data
// is valid until the transaction finishes.
func (t *Tx) ReadTo(addr proto.Addr, size int, h ReadHandler) {
	op := t.m.getReadOp(t.thread, addr, size, h)
	op.tx = t
	// Read-your-writes, then repeated reads return the same data (§3):
	// both are served from the transaction's own buffers on its thread.
	if op.own = t.find(addr); op.own >= 0 {
		t.live++
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
	t.live++
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
// first write, a copy of value made before cb runs: the caller may reuse
// value from then on. If hint is non-nil the object is placed in the same
// region as the hint (locality, §3) if that has room, else near it;
// otherwise a region with a local primary is preferred. The object becomes
// visible only when the transaction commits.
func (t *Tx) Alloc(size int, value []byte, hint *proto.Addr, cb func(addr proto.Addr, err error)) {
	op := t.m.newAllocOp(t, hint)
	op.size, op.value, op.cb = size, value, cb
	t.live++
	if len(op.regions) == 0 {
		t.m.OnThread(t.thread, cpuLocal, op.noSpaceFn)
		return
	}
	op.try()
}

// allocOp is one Tx.Alloc as a pooled state machine, like readOp: it tries
// the candidate regions in order, reserving a slot at each one's primary
// (the free lists live only there, §5.5) — a local pop on the coordinator
// thread or an ALLOC-SLOT call — until one has room. Its continuations are
// bound once, and it returns to the pool before the callback runs. One
// that dies with its machine is dropped.
type allocOp struct {
	m     *Machine
	t     *Tx
	size  int
	value []byte
	cb    func(proto.Addr, error)
	// regions are the candidates, in the order they are tried (keeps its
	// capacity); next is the one being tried. hinted: regions[0] is the
	// hint's, and the others are added only if it is full.
	regions []uint32
	next    int
	hinted  bool

	localFn, noSpaceFn func()
	calledFn           func(interface{}, error)
}

// newAllocOp returns a pooled allocOp for t, its candidates filled in: the
// hint's region alone (nearby follows when it is full), or the nearby order.
func (m *Machine) newAllocOp(t *Tx, hint *proto.Addr) *allocOp {
	op := m.allocs.Get()
	op.t = t
	if hint != nil {
		op.regions, op.hinted = append(op.regions, hint.Region), true
		return op
	}
	op.nearby(m.ID, -1)
	return op
}

// nearby appends candidates: every mapped region but skip (-1: none) whose
// primary is machine p, then every one whose primary is this machine, then
// every other one, each group ascending like the table.
func (op *allocOp) nearby(p, skip int) {
	m := op.m
	for group := 0; group < 3; group++ {
		for i := range m.regions {
			rm := m.regions[i].mapping
			if rm == nil || len(rm.Replicas) == 0 || i == skip {
				continue
			}
			in := 2
			switch int(rm.Replicas[0]) {
			case p:
				in = 0
			case m.ID:
				in = 1
			}
			if in == group {
				op.regions = append(op.regions, uint32(i))
			}
		}
	}
}

// try reserves a slot in the next candidate region, locally or through its
// primary.
func (op *allocOp) try() {
	m := op.m
	if op.next >= len(op.regions) {
		op.done(proto.Addr{}, ErrNoSpace)
		return
	}
	region := op.regions[op.next]
	p := m.primaryOf(region)
	switch {
	case p == -1:
		op.slotDone(0, 0, ErrUnavailable)
	case p == m.ID:
		m.OnThread(op.t.thread, cpuLocal, op.localFn)
	default:
		// A reservation the primary never answers reports ErrUnavailable,
		// and the next candidate is tried; a late answer is dropped, and
		// its slot left to allocator recovery.
		req := &allocSlotReq{Region: region, Size: op.size}
		req.ID = m.call(p, req, op.calledFn)
		m.sendFromThread(op.t.thread, p, req)
	}
}

// local pops a slot from this machine's own primary replica.
func (op *allocOp) local() {
	off, ver, err := op.m.allocSlotLocal(op.regions[op.next], op.size)
	op.slotDone(off, ver, err)
}

// called takes the primary's answer to ALLOC-SLOT.
func (op *allocOp) called(resp interface{}, err error) {
	if err != nil {
		op.m.c.Counters.Inc("alloc_slot_stalled", 1)
		op.slotDone(0, 0, err)
		return
	}
	switch r := resp.(*allocSlotResp); {
	case r.OK:
		op.slotDone(r.Off, r.Version, nil)
	case r.Full:
		op.slotDone(0, 0, ErrNoSpace)
	default:
		op.slotDone(0, 0, ErrUnavailable)
	}
}

// slotDone moves on to the next candidate after a failed reservation, or
// enters the reserved slot into the write set with its first write.
func (op *allocOp) slotDone(off uint32, version uint64, err error) {
	if err != nil {
		if op.hinted && err == ErrNoSpace {
			// The hint's region is full: try near it.
			op.hinted = false
			op.nearby(op.m.primaryOf(op.regions[0]), int(op.regions[0]))
		}
		op.next++
		op.try()
		return
	}
	t := op.t
	addr := proto.Addr{Region: op.regions[op.next], Off: off}
	e := t.writeEntry(t.entry(addr))
	e.version, e.allocated, e.isAlloc = version, true, true
	t.setValue(e, op.value)
	t.histWrite(addr, version, op.value, true, false)
	op.done(addr, nil)
}

func (op *allocOp) noSpace() { op.done(proto.Addr{}, ErrNoSpace) }

// done recycles the op, then reports to the application.
func (op *allocOp) done(addr proto.Addr, err error) {
	t, cb := op.t, op.cb
	op.t, op.value, op.cb, op.regions, op.next, op.hinted = nil, nil, nil, op.regions[:0], 0, false
	op.m.allocs.Put(op)
	cb(addr, err)
	t.settle()
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
// aborting releases the slots Alloc reserved and finishes the transaction;
// t and the bytes it handed out are not to be used once Abort returns.
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
	t.appDone = true
	t.release()
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
	Full    bool // not OK because the region has no free slot of the size
	Off     uint32
	Version uint64
}

type releaseSlotReq struct {
	Region uint32
	Off    uint32
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
	word := rep.mem.ReadHeader(off)
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

// FreeSlots reports how many free slots the size class serving size-byte
// payloads has in this machine's replica of region, or -1 when it is not the
// region's primary: the slots an aborted transaction reserved come back here.
func (m *Machine) FreeSlots(region uint32, size int) int {
	rep := m.replica(region)
	if rep == nil || !rep.primary {
		return -1
	}
	return rep.alloc.FreeCount(size)
}

// rpcReply answers a slot reservation, a region allocation or an
// application call with the call id its request carried. An application's
// reply comes from its sender's pool (AppCall.Reply) and goes back with its
// frame; the receiver copies the answer out at the delivery upcall
// (dispatchMsg).
type rpcReply struct {
	ID   uint64
	Body interface{}

	pool *Machine // nil for one made bare
}

// Reclaim returns a pooled reply to its sender's pool.
func (r *rpcReply) Reclaim() {
	if m := r.pool; m != nil {
		r.ID, r.Body = 0, nil
		m.replies.Put(r)
	}
}

// errTxDone guards double commits.
var errTxDone = errors.New("farm: transaction already finished")
