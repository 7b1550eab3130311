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
// at a time; deliver recycles the op before calling cb, so a callback that
// reads again may reuse it. A read that dies with its machine is dropped,
// never recycled.
type readOp struct {
	m      *Machine
	thread int
	addr   proto.Addr
	size   int
	h      ReadHandler

	// tx is set for Tx.Read: a fresh read joins tx's read set and the
	// caller gets a copy. nil (LockFreeRead, external clients) hands the
	// fetched payload over as is.
	tx *Tx
	// own is the table entry serving a read-your-writes or repeated read
	// (-1 for a fresh read); its bytes are read at delivery, not at issue.
	own  int
	rctx trace.Ctx

	lockRetries, mapRetries int
	primary                 int      // remote primary chosen by start
	rep                     *replica // local primary replica chosen by start

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

// recycle clears the op and returns it to the pool; callers copy out what
// they still need first.
func (op *readOp) recycle() {
	op.tx, op.h, op.rep = nil, nil, nil
	op.rctx = trace.Ctx{}
	op.lockRetries, op.mapRetries = 0, 0
	op.m.readFree = append(op.m.readFree, op)
}

// LockFreeRead performs FaRM's optimized single-object read-only
// transaction (§3): one RDMA read, no commit phase. It retries while the
// object is write-locked. data belongs to the callback.
func (m *Machine) LockFreeRead(thread int, addr proto.Addr, size int, cb func(data []byte, err error)) {
	m.getReadOp(thread, addr, size, ReadFunc(cb)).start()
}

// LockFreeReadTo is LockFreeRead delivering to a ReadHandler.
func (m *Machine) LockFreeReadTo(thread int, addr proto.Addr, size int, h ReadHandler) {
	m.getReadOp(thread, addr, size, h).start()
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

// readLocal serves the read from this machine's own primary replica: the
// payload is copied once, from region memory into the bytes the read set
// (or, outside a transaction, the caller) keeps.
func (op *readOp) readLocal() {
	rep, off := op.rep, int(op.addr.Off)
	if off+regionmem.HeaderSize+op.size > len(rep.mem) {
		op.deliver(0, nil, fabric.ErrBadAddress)
		return
	}
	word := regionmem.ReadHeader(rep.mem, off)
	if op.retryIfLocked(word) {
		return
	}
	var data []byte
	if op.tx != nil {
		data = op.tx.carve(op.size)
	} else {
		data = make([]byte, op.size)
	}
	copy(data, rep.mem[off+regionmem.HeaderSize:])
	op.deliver(word, data, nil)
}

func (op *readOp) issue() {
	op.m.nic.Read(fabric.MachineID(op.primary), nvram.RegionID(op.addr.Region), int(op.addr.Off),
		regionmem.HeaderSize+op.size, op.readDoneFn)
}

// handle inspects the header+payload of a remote read, which this read
// owns: the fabric made raw for it and keeps no reference.
func (op *readOp) handle(raw []byte, err error) {
	if !op.m.alive {
		return
	}
	if err != nil {
		op.retryMapping()
		return
	}
	word := regionmem.ReadHeader(raw, 0)
	if !op.retryIfLocked(word) {
		op.deliver(word, raw[regionmem.HeaderSize:], nil)
	}
}

// retryIfLocked reports whether the header word shows a write lock, having
// scheduled the retry (or given up) if so.
func (op *readOp) retryIfLocked(word uint64) bool {
	if !regionmem.Locked(word) {
		return false
	}
	if op.lockRetries >= maxReadRetries {
		op.deliver(0, nil, ErrReadLocked)
	} else {
		op.m.c.Eng.After(2*sim.Microsecond, op.lockRetryFn)
	}
	return true
}

// deliver finishes a fetched read. Inside a transaction data becomes the
// read set's private copy and the caller gets its own.
func (op *readOp) deliver(word uint64, data []byte, err error) {
	m, t, addr, rctx, h := op.m, op.tx, op.addr, op.rctx, op.h
	op.recycle()
	if rctx.Valid() {
		m.trb.End(rctx, m.c.Eng.Now(), 0)
	}
	alone := t != nil && t.readLanded()
	if err != nil {
		h.ReadDone(nil, err)
		return
	}
	if t != nil {
		t.noteRead(addr, regionmem.Version(word), data, alone)
		h.ReadDone(t.copyOut(data), nil)
		return
	}
	if !m.selfLeaseOK() {
		// A lock-free read is an outcome too: with its lease lapsed this
		// machine may have been evicted, and the replica it read may no
		// longer be the primary. (A transaction's reads wait for its commit.)
		m.fencedReport(func() { h.ReadDone(data, nil) })
		return
	}
	h.ReadDone(data, nil)
}

// deliverOwn finishes a read served from the transaction's own buffers.
func (op *readOp) deliverOwn() {
	t, e, h := op.tx, &op.tx.set[op.own], op.h
	op.recycle()
	src := e.data
	if e.written {
		src = e.value
	}
	h.ReadDone(t.copyOut(src), nil)
}
