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
	cb     func(data []byte, err error)

	// tx is set for Tx.Read: a fresh read joins tx's read set and the
	// caller gets a copy. nil (LockFreeRead, external clients) hands the
	// fetched payload over as is.
	tx *Tx
	// own points at the transaction's buffered value for read-your-writes
	// and repeated reads; it is read at delivery, not at issue.
	own  *[]byte
	rctx trace.Ctx

	lockRetries, mapRetries int
	primary                 int      // remote primary chosen by start
	rep                     *replica // local primary replica chosen by start

	startFn, ownFn, localFn, issueFn, backoffFn, lockRetryFn func()
	readDoneFn                                               func([]byte, error)
}

func (m *Machine) getReadOp(thread int, addr proto.Addr, size int, cb func([]byte, error)) *readOp {
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
	op.thread, op.addr, op.size, op.cb = thread, addr, size, cb
	return op
}

// recycle clears the op and returns it to the pool; callers copy out what
// they still need first.
func (op *readOp) recycle() {
	op.tx, op.own, op.cb, op.rep = nil, nil, nil, nil
	op.rctx = trace.Ctx{}
	op.lockRetries, op.mapRetries = 0, 0
	op.m.readFree = append(op.m.readFree, op)
}

// LockFreeRead performs FaRM's optimized single-object read-only
// transaction (§3): one RDMA read, no commit phase. It retries while the
// object is write-locked.
func (m *Machine) LockFreeRead(thread int, addr proto.Addr, size int, cb func(data []byte, err error)) {
	m.getReadOp(thread, addr, size, cb).start()
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
		op.rep = m.replicas[region]
		if op.rep == nil || !op.rep.primary {
			op.retryMapping()
			return
		}
		m.OnThread(op.thread, m.c.Opts.CPULocal, op.localFn)
		return
	}
	if !m.isMember(p) {
		op.retryMapping()
		return
	}
	op.primary = p
	m.OnThread(op.thread, m.c.Opts.CPUVerb, op.issueFn)
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

// readLocal serves the read from this machine's own primary replica.
func (op *readOp) readLocal() {
	rep, off := op.rep, int(op.addr.Off)
	if off+regionmem.HeaderSize+op.size > len(rep.mem) {
		op.deliver(0, nil, fabric.ErrBadAddress)
		return
	}
	raw := make([]byte, regionmem.HeaderSize+op.size)
	copy(raw, rep.mem[off:])
	op.handle(raw, nil)
}

func (op *readOp) issue() {
	op.m.nic.Read(fabric.MachineID(op.primary), nvram.RegionID(op.addr.Region), int(op.addr.Off),
		regionmem.HeaderSize+op.size, op.readDoneFn)
}

// handle inspects the fetched header+payload, which this read owns: the
// fabric (or readLocal) made raw for it and keeps no reference.
func (op *readOp) handle(raw []byte, err error) {
	m := op.m
	if !m.alive {
		return
	}
	if err != nil {
		op.retryMapping()
		return
	}
	word := regionmem.ReadHeader(raw, 0)
	if regionmem.Locked(word) {
		if op.lockRetries >= maxReadRetries {
			op.deliver(0, nil, ErrReadLocked)
			return
		}
		m.c.Eng.After(2*sim.Microsecond, op.lockRetryFn)
		return
	}
	op.deliver(word, raw[regionmem.HeaderSize:], nil)
}

// deliver finishes a fetched read.
func (op *readOp) deliver(word uint64, data []byte, err error) {
	m, t, addr, size, rctx, cb := op.m, op.tx, op.addr, op.size, op.rctx, op.cb
	op.recycle()
	if rctx.Valid() {
		m.trb.End(rctx, m.c.Eng.Now(), 0)
	}
	if err != nil {
		cb(nil, err)
		return
	}
	if t == nil {
		cb(data, nil)
		return
	}
	t.reads[addr] = &readEntry{addr: addr, version: regionmem.Version(word), size: size, data: data}
	t.histRead(addr, regionmem.Version(word))
	cb(append([]byte(nil), data...), nil)
}

// deliverOwn finishes a read served from the transaction's own buffers.
func (op *readOp) deliverOwn() {
	own, cb := op.own, op.cb
	op.recycle()
	cb(append([]byte(nil), *own...), nil)
}
