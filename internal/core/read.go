package core

import (
	"farm/internal/fabric"
	"farm/internal/nvram"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
	"farm/internal/trace"
)

// readOp is one object read as a pooled state machine: resolve the
// primary, read header+payload (a local copy or one RDMA read), retry on
// locks, stale mappings, blocked regions and transient failures, then
// deliver. Every continuation a read can park on — worker thread, NIC
// completion, timer, client queue, region and mapping waiters — is a stage
// func bound once when the op is first allocated, so a read schedules
// through them without allocating. Exactly one continuation is outstanding
// at a time. The op goes back to the pool only after its handler returned:
// outside a transaction the handler is given the op's own buffer, which the
// next read reuses. A read that dies with its machine is dropped, never
// recycled.
type readOp struct {
	m      *Machine
	thread int
	addr   proto.Addr
	size   int
	h      ReadHandler
	// sh is set for a span read of n adjacent objects (h is then nil).
	sh SpanHandler
	n  int

	// tx is set for Tx.Read: a fresh read joins tx's read set and the
	// caller gets a copy, and tx is not recycled before the caller's
	// handler returned (Tx.live). nil (LockFreeRead, external clients)
	// hands the fetched payload over as is.
	tx *Tx
	// own is the table entry serving a read-your-writes or repeated read
	// (-1 for a fresh read); its bytes are read at delivery, not at issue.
	own  int
	rctx trace.Ctx

	lockRetries, mapRetries int
	primary                 int      // remote primary chosen by start
	rep                     *replica // local primary replica chosen by start
	// buf is where the read lands, local copy or one-sided read: carved
	// from tx's slab inside a transaction, else spare. Every retry of the
	// read lands in it again.
	buf []byte
	// spare is the op's own buffer, kept across recycles and grown to the
	// longest read outside a transaction it served.
	spare []byte

	startFn, ownFn, localFn, issueFn, backoffFn, lockRetryFn func()
	readDoneFn                                               func([]byte, error)
}

func (m *Machine) getReadOp(thread int, addr proto.Addr, size int, h ReadHandler) *readOp {
	var op *readOp
	if k := len(m.readFree); k > 0 {
		op = m.readFree[k-1]
		m.readFree = m.readFree[:k-1]
	} else {
		op = &readOp{m: m}
		op.startFn = op.start
		op.ownFn = op.deliverOwn
		op.localFn = op.readLocal
		op.issueFn = op.issue
		op.backoffFn = op.refetchMapping
		op.lockRetryFn = op.retryLocked
		op.readDoneFn = op.handle
	}
	op.thread, op.addr, op.size, op.h, op.own = thread, addr, size, h, -1
	return op
}

// recycle clears the op, but for its spare buffer, and returns it to the
// pool, once the read's handler returned.
func (op *readOp) recycle() {
	op.tx, op.h, op.sh, op.rep, op.buf = nil, nil, nil, nil, nil
	op.rctx = trace.Ctx{}
	op.lockRetries, op.mapRetries, op.n = 0, 0, 0
	op.m.readFree = append(op.m.readFree, op)
}

// LockFreeRead performs FaRM's optimized single-object read-only
// transaction (§3): one RDMA read, no commit phase. It retries while the
// object is write-locked. data is the read's own buffer, valid until cb
// returns: a caller that keeps the bytes copies them.
func (m *Machine) LockFreeRead(thread int, addr proto.Addr, size int, cb func(data []byte, err error)) {
	m.getReadOp(thread, addr, size, ReadFunc(cb)).start()
}

// LockFreeReadTo is LockFreeRead delivering to a ReadHandler.
func (m *Machine) LockFreeReadTo(thread int, addr proto.Addr, size int, h ReadHandler) {
	m.getReadOp(thread, addr, size, h).start()
}

// LockFreeReadSpanTo reads n adjacent objects of one slab — the object at
// addr and the n-1 that follow it in memory, each with a size-byte payload —
// with one verb, or one local copy, outside any transaction. Every object is
// read at the same instant; the read is retried only while an object h says
// the answer depends on is write-locked. The span's bytes are valid until
// SpanDone returns.
func (m *Machine) LockFreeReadSpanTo(thread int, addr proto.Addr, size, n int, h SpanHandler) {
	op := m.getReadOp(thread, addr, size, nil)
	op.sh, op.n = h, n
	op.start()
}

// Span is what a span read saw: the payloads of N adjacent objects, at most
// four, all read at one instant. Payloads are views to look at only: inside a
// transaction they are its read set's copies, or its own buffers for objects
// it already held. Own returns bytes the caller may change.
type Span struct {
	N    int
	data [4][]byte
	t    *Tx
}

// Payload returns object i's bytes, to look at only.
func (s *Span) Payload(i int) []byte { return s.data[i] }

// Own returns object i's bytes for the caller to change: inside a
// transaction a copy, valid until the transaction finishes (its Commit
// callback or Abort returns); outside one the fetched bytes themselves,
// valid until SpanDone returns.
func (s *Span) Own(i int) []byte {
	if s.t == nil {
		return s.data[i]
	}
	return s.t.copyOut(s.data[i])
}

// SpanHandler receives a span read. SpanNeeds names, as bit sets over the
// span's objects (bit i is object i), those the answer depends on — the read
// is retried while one of them is write-locked — and those a transaction's
// read set also keeps if they were not locked. It may run again after a
// retry; SpanDone follows the last run.
type SpanHandler interface {
	SpanNeeds(s Span) (need, keep uint8)
	SpanDone(s Span, err error)
}

// length is how many bytes the read fetches: header and payload, after n-1
// whole slots for a span.
func (op *readOp) length() int {
	return max(op.n-1, 0)*regionmem.SlotSize(op.size) + regionmem.HeaderSize + op.size
}

// start resolves the primary and schedules the read; every retry re-enters
// here.
func (op *readOp) start() {
	m := op.m
	if !m.alive {
		return
	}
	if m.clientsBlocked {
		// §5.2: from the moment a machine suspects a reconfiguration it
		// blocks requests until it learns the outcome. An evicted machine
		// never learns one and stays fenced (until it rejoins), so a
		// machine partitioned out of the configuration cannot serve reads
		// of its own stale replicas to local transactions.
		m.clientQueue = append(m.clientQueue, op.startFn)
		return
	}
	region := op.addr.Region
	p := m.primaryOf(region)
	if p == -1 {
		op.retryMapping()
		return
	}
	if m.regionBlocked(region) {
		// §5.3 step 1: requests for references to recovering regions block
		// until lock recovery completes.
		m.blockUntilActive(region, op.startFn)
		return
	}
	if p == m.ID {
		op.rep = m.replica(region)
		if op.rep == nil || !op.rep.primary {
			op.retryMapping()
			return
		}
		m.OnThread(op.thread, cpuLocal, op.localFn)
		return
	}
	if !m.isMember(p) {
		op.retryMapping()
		return
	}
	op.primary = p
	m.OnThread(op.thread, cpuVerb, op.issueFn)
}

// retryMapping refreshes the region's placement after a capped exponential
// backoff, or gives up once the retry budget is spent.
func (op *readOp) retryMapping() {
	if op.mapRetries >= maxMappingRetries {
		op.deliver(0, nil, ErrUnavailable)
		return
	}
	op.m.c.Eng.After(mappingBackoff(op.mapRetries), op.backoffFn)
}

func (op *readOp) refetchMapping() {
	op.mapRetries++
	op.m.fetchMapping(op.addr.Region, op.startFn)
}

func (op *readOp) retryLocked() {
	op.lockRetries++
	op.start()
}

// lockedRetry schedules another try at a locked read, or gives up once the
// retry budget is spent.
func (op *readOp) lockedRetry() {
	if op.lockRetries >= maxReadRetries {
		op.deliver(0, nil, ErrReadLocked)
	} else {
		op.m.c.Eng.After(2*sim.Microsecond, op.lockRetryFn)
	}
}

// buffer returns the bytes the read lands in, taken on its first try.
func (op *readOp) buffer() []byte {
	if op.buf == nil {
		n := op.length()
		if op.tx != nil {
			op.buf = op.tx.carve(n)
		} else {
			if cap(op.spare) < n {
				op.spare = make([]byte, n)
			}
			op.buf = op.spare[:n:n]
		}
	}
	return op.buf
}

// readLocal serves the read from this machine's own primary replica: the
// header and payload are copied once, from region memory into the bytes the
// read set keeps (outside a transaction, the op's own buffer).
func (op *readOp) readLocal() {
	rep, off := op.rep, int(op.addr.Off)
	if off+op.length() > rep.mem.Size() {
		op.deliver(0, nil, fabric.ErrBadAddress)
		return
	}
	raw := op.buffer()
	rep.mem.ReadAt(raw, off)
	op.landed(raw)
}

// issue reads header and payload from the remote primary with one verb,
// straight into the read's buffer.
func (op *readOp) issue() {
	op.m.nic.ReadInto(fabric.MachineID(op.primary), nvram.RegionID(op.addr.Region), int(op.addr.Off),
		op.buffer(), op.readDoneFn)
}

// handle takes a remote read: raw is the read's own buffer, which the
// fabric filled and keeps no reference to.
func (op *readOp) handle(raw []byte, err error) {
	if !op.m.alive {
		return
	}
	if err != nil {
		op.retryMapping()
		return
	}
	op.landed(raw)
}

// landed inspects the header and payload a read fetched, and retries it while
// the object is write-locked.
func (op *readOp) landed(raw []byte) {
	if op.sh != nil {
		op.spanLanded(raw)
	} else if word := regionmem.ReadHeader(raw, 0); regionmem.Locked(word) {
		op.lockedRetry()
	} else {
		op.deliver(word, raw[regionmem.HeaderSize:], nil)
	}
}

// spanLanded examines a fetched span, header words included, one slot
// apart. Objects the transaction already holds are served from its own
// buffers; of the rest, a lock on one the handler needs sends the read around
// again, and the read set takes the needed ones and the unlocked kept ones.
func (op *readOp) spanLanded(raw []byte) {
	m, t, h, addr := op.m, op.tx, op.sh, op.addr
	stride := regionmem.SlotSize(op.size)
	s := Span{N: op.n, t: t}
	var locked, held uint8
	for i := 0; i < op.n; i++ {
		at := i*stride + regionmem.HeaderSize
		s.data[i] = raw[at : at+op.size : at+op.size]
		if t != nil {
			if j := t.find(proto.Addr{Region: addr.Region, Off: addr.Off + uint32(i*stride)}); j >= 0 {
				s.data[i], held = t.set[j].view(), held|1<<i
				continue
			}
		}
		if regionmem.Locked(regionmem.ReadHeader(raw, i*stride)) {
			locked |= 1 << i
		}
	}
	need, keep := h.SpanNeeds(s)
	if need&locked != 0 {
		m.c.Counters.Inc("span_lock_retries", 1)
		op.lockedRetry()
		return
	}
	alone := op.land()
	if t == nil && !m.selfLeaseOK() {
		m.fencedReport(func() {
			h.SpanDone(s, nil)
			op.recycle()
		})
		return
	}
	if t != nil {
		// Every object the span adds was read at the same instant, so a span
		// that ran alone is the read a read-only commit serializes at, whole.
		keep = (need | keep&^locked) &^ held
		lo := int32(len(t.set))
		for i := 0; i < s.N; i++ {
			if keep&(1<<i) != 0 {
				word := regionmem.ReadHeader(raw, i*stride)
				t.noteRead(proto.Addr{Region: addr.Region, Off: addr.Off + uint32(i*stride)}, regionmem.Version(word), s.data[i])
			}
		}
		if alone {
			t.aloneLo, t.aloneHi = lo, int32(len(t.set))
		}
		h.SpanDone(s, nil)
		op.recycle()
		t.settle()
		return
	}
	h.SpanDone(s, nil)
	op.recycle()
}

// land finishes a read its caller is about to be told of: its trace span
// ends and a transaction's fresh read retires. It reports whether that read
// ran alone (readLanded). The op is recycled once the handler returned.
func (op *readOp) land() bool {
	m, t, rctx := op.m, op.tx, op.rctx
	if rctx.Valid() {
		m.trb.End(rctx, m.c.Eng.Now(), 0)
	}
	return t != nil && t.readLanded()
}

// deliver finishes a fetched read. Inside a transaction data becomes the
// read set's private copy and the caller gets its own; outside one the
// caller gets the op's buffer until its handler returns.
func (op *readOp) deliver(word uint64, data []byte, err error) {
	m, t, addr, h, sh := op.m, op.tx, op.addr, op.h, op.sh
	alone := op.land()
	if err != nil {
		if sh != nil {
			sh.SpanDone(Span{}, err)
		} else {
			h.ReadDone(nil, err)
		}
		op.recycle()
		if t != nil {
			t.settle()
		}
		return
	}
	if t != nil {
		i := t.noteRead(addr, regionmem.Version(word), data)
		if alone {
			t.aloneLo, t.aloneHi = i, i+1
		}
		h.ReadDone(t.copyOut(data), nil)
		op.recycle()
		t.settle()
		return
	}
	if !m.selfLeaseOK() {
		// A lock-free read is an outcome too: with its lease lapsed this
		// machine may have been evicted, and the replica it read may no
		// longer be the primary. (A transaction's reads wait for its commit.)
		// The op, and with it data, waits with the report.
		m.fencedReport(func() {
			h.ReadDone(data, nil)
			op.recycle()
		})
		return
	}
	h.ReadDone(data, nil)
	op.recycle()
}

// deliverOwn finishes a read served from the transaction's own buffers.
func (op *readOp) deliverOwn() {
	t, e, h := op.tx, &op.tx.set[op.own], op.h
	h.ReadDone(t.copyOut(e.view()), nil)
	op.recycle()
	t.settle()
}
