package core

import (
	"fmt"

	"farm/internal/audit"
	"farm/internal/fabric"
	"farm/internal/nvram"
	"farm/internal/pool"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/ring"
	"farm/internal/sim"
	"farm/internal/stats"
	"farm/internal/trace"
)

// replica is one hosted copy of a region.
type replica struct {
	id   uint32
	mem  *regionmem.Region
	size int

	primary bool
	// active gates access at a primary: false while the region's lock
	// recovery is in progress (§5.3 step 1).
	active bool

	// alloc is the slab allocator, maintained only while primary (§5.5).
	alloc *regionmem.Allocator
	// allocRecovering is true while free lists are being rebuilt by
	// scanning; a free committed meanwhile is left to the scan.
	allocRecovering bool
	// needsDataRecovery marks a freshly assigned backup replica awaiting
	// bulk re-replication (§5.4).
	needsDataRecovery bool
	// recCtx is the open "re-replication" span while bulk data recovery
	// (§5.4) runs for this replica.
	recCtx trace.Ctx

	// lockOwner tracks which transaction holds each object lock, for
	// correct unlocking on aborts and recovery decisions.
	lockOwner map[uint32]proto.TxID

	// dig is the incrementally maintained state-integrity digest over
	// every slot of every classed block (internal/audit). Updated in O(1)
	// at every commit apply, recovery replay, and re-replication write.
	dig audit.Digest
	// audit is the state-integrity audit this primary runs on the region,
	// nil when none does. While it runs the region is fenced: new LOCK
	// acquisitions fail as ordinary conflict aborts. It ends with the audit
	// and whenever the configuration changes.
	audit *auditRun
	// repairing marks a backup replica re-running data recovery in
	// force-copy mode to heal an audit divergence; finishing reseeds dig
	// from a fresh scan and answers the repair call repairID.
	repairing bool
	repairID  uint64
}

// holds reports whether off leaves room for an object header inside the
// replica: an offset from another machine is checked before memory is
// touched.
func (rep *replica) holds(off uint32) bool {
	return rep.mem.Holds(int(off))
}

// remoteTx is participant-side state for a transaction whose records
// appear in this machine's logs. Entries come from the machine's pool
// (newRemoteTx) and go back to it when the transaction truncates, with the
// capacity of their slices (DESIGN.md §12).
type remoteTx struct {
	id proto.TxID
	// lock holds the LOCK or COMMIT-BACKUP contents (our objects), the two
	// merged when both arrive: a pooled record this entry owns, recycled
	// with it. Its values are the ring bytes of the entry's frames (or a
	// recovered record's own), so it lives no longer than they do; it never
	// leaves the machine, recovery hands out clones.
	lock *proto.Record
	saw  uint8 // proto.Saw* bits
	// lockedObjs are objects this machine locked as primary.
	lockedObjs []proto.Addr
	applied    bool
	// lockRefused marks a transaction whose LOCK this primary refused: it
	// holds nothing here and its coordinator must abort it.
	lockRefused bool
	// regionHint is a copy of the written-region list of the last record
	// that carried one, for recovery classification when the lock record is
	// absent.
	regionHint []uint32
	// frames are the log frames holding the transaction's records, reclaimed
	// when it truncates.
	frames []logFrame
}

// logFrame is one frame of a peer's log ring, by sequence number.
type logFrame struct {
	lr  *logReader
	seq uint64
}

// logReader wraps the receiver side of one peer's transaction log.
type logReader struct {
	src int
	// mem is the ring's memory, a page table holding no page until a
	// write lands one.
	mem *ring.Pages
	// rd parses the ring. It is nil until the first write lands in the
	// ring (onRemoteWrite): until then the ring is empty. Most of a large
	// cluster's machines² rings stay that way, because a machine only ever
	// receives records from coordinators it shares a region with.
	rd *ring.Reader
	// pollScheduled: a poll of the ring is pending, and frames landing
	// meanwhile are left to it.
	pollScheduled bool
	// pollFn is the reader's single pre-bound poll callback (see
	// newLogReader), so scheduling a poll allocates nothing.
	pollFn func()
	// reported is the consumed-bytes watermark last pushed to the sender.
	reported uint64
}

// peer is this machine's state toward one machine of the cluster, itself
// included: "each sender-receiver pair has its own log" (§4), and whatever
// else is kept per machine.
type peer struct {
	id   int
	logW *ring.Writer // appends to this machine's ring in the peer's memory
	logR *logReader   // reads the peer's ring here
	// truncQ is the coordinator's truncation work toward the peer.
	truncQ truncQueue
	// trunc holds, per coordinator thread of the peer, the transaction ids
	// truncated here (§5.3 step 6).
	trunc []idWindow
}

// peer returns the entry for machine id, nil for an id the table does not
// hold: machine ids arrive in log records and messages.
func (m *Machine) peer(id int) *peer {
	if id < 0 || id >= len(m.peers) {
		return nil
	}
	return m.peers[id]
}

// truncWindow returns the truncated-id set of one coordinator thread, nil
// for a machine the table does not hold. The peer's sets grow to the thread
// id, two bytes off the wire, and a set is made ready at its first use; they
// move when they grow, so the pointer is for immediate use.
func (m *Machine) truncWindow(k proto.CoordKey) *idWindow {
	p := m.peer(int(k.Machine))
	if p == nil {
		return nil
	}
	if n := int(k.Thread) + 1 - len(p.trunc); n > 0 {
		p.trunc = append(p.trunc, make([]idWindow, n)...)
	}
	w := &p.trunc[k.Thread]
	if w.ids == nil {
		w.ids = make(map[uint64]bool)
	}
	return w
}

// addPeer appends the entry of the next machine id, with the write half
// toward it and the receive ring for its records (empty: no bytes yet). The
// self log is one of them: coordinators co-located with a primary or backup
// write locally (§4 "local memory accesses rather than RDMA").
func (m *Machine) addPeer() {
	id := len(m.peers)
	mem := ring.NewPages(m.c.Opts.LogCapacity, &m.ringSpares)
	if err := m.store.AllocatePaged(nvram.RegionID(logRegionID(id)), mem); err != nil {
		panic(fmt.Sprintf("core: log ring for peer %d: %v", id, err))
	}
	p := &peer{
		id:   id,
		logW: ring.NewWriter(m.nic, fabric.MachineID(id), nvram.RegionID(logRegionID(m.ID)), m.c.Opts.LogCapacity),
		logR: newLogReader(m, id, mem),
	}
	p.truncQ.flushFn = func() {
		p.truncQ.flushArmed = false
		if m.alive && m.isMember(id) {
			m.flushTruncations(p)
		}
	}
	m.peers = append(m.peers, p)
}

// newLogReader builds the receive state of one peer's log ring, whose
// memory is mem, with its poll callback bound once.
func newLogReader(m *Machine, src int, mem *ring.Pages) *logReader {
	lr := &logReader{src: src, mem: mem}
	lr.pollFn = func() {
		lr.pollScheduled = false
		if m.alive {
			m.pollLog(lr)
		}
	}
	return lr
}

// Machine is one FaRM machine: worker threads, NVRAM-hosted region
// replicas, per-peer transaction logs, a lease manager, coordinator state
// for its own transactions, and participant state for others'.
type Machine struct {
	ID int

	c     *Cluster
	nic   *fabric.NIC
	store *nvram.Store
	// ringSpares are the pages this machine's log rings dropped, for the
	// next pages any of them makes.
	ringSpares ring.Spares
	pool       *sim.ThreadPool
	// tp is the typed message transport: handler registry, the one send
	// path, and per-type accounting.
	tp *transport

	alive bool
	// poweredOff marks machines taken down by a cluster-wide power
	// failure (they restart on RestorePower, unlike crashed machines).
	poweredOff bool

	// config is this machine's view of the current configuration.
	config      proto.Config
	lastDrained uint64

	// peers is indexed by machine id, regions by region id. An id from
	// outside goes through peer, region, mapping, replica or truncWindow,
	// which answer nil for one not held.
	peers   []*peer
	regions []regionState
	pend    map[mtl]*remoteTx

	// Coordinator-side state. truncThreads holds, per own thread, the local
	// ids truncated at every participant; the low bound rides on records
	// (Table 1) so participants can compact their sets (§5.3 step 6).
	inflight     map[proto.TxID]*Tx
	nextLocal    []uint64
	truncThreads []idWindow

	lease *leaseManager
	// fencedReports holds application outcome reports deferred because
	// this machine's own lease lapsed (it may have been evicted without
	// knowing). They flush from the lease tick once every watched lease is
	// current again; on a machine that really was evicted they never fire
	// and the outcomes stay indeterminate.
	fencedReports []func()
	cm            *cmState
	recov         *recoveryState

	// reconfiguring guards against concurrent reconfiguration attempts by
	// this machine.
	reconfiguring bool
	// configCommitted is false between adopting a NEW-CONFIG and receiving
	// its COMMIT (clients stay blocked until COMMIT arrives).
	configCommitted bool
	// configShrank records whether the latest NEW-CONFIG removed any
	// machine (then every region runs the recovery handshake).
	configShrank bool
	// stallSweepOn guards the periodic stall sweep against duplicate arming
	// across power cycles.
	stallSweepOn bool

	// calls are the requests awaiting an answer, in id order; nextRPC is
	// the last id issued (the call table, transport.go).
	calls   []pendingCall
	nextRPC uint64

	// appHandler receives application calls (function shipping).
	appHandler func(src int, req interface{}, call AppCall)

	// nextAudit feeds the deterministic audit id scheme
	// (machine+1)<<40 | counter (a run hangs off its replica, replica.audit).
	nextAudit uint64

	// External-client gating (§5.2): requests queue between suspicion/
	// NEW-CONFIG and NEW-CONFIG-COMMIT.
	clientsBlocked bool
	clientQueue    []func()

	// trb is this machine's trace ring (nil when tracing is disabled —
	// every instrumentation site guards on that nil, so the disabled hot
	// path costs one pointer compare and zero allocations). curCtx is the
	// causal context of the message handler currently running, inherited
	// by any sends the handler issues; reconfigCtx is the open
	// reconfiguration span (this machine as initiator/CM).
	trb         *trace.Buffer
	curCtx      trace.Ctx
	reconfigCtx trace.Ctx

	// The pools of every object the per-message and per-operation paths
	// take and give back, so steady state allocates nothing (initPools).
	tasks       pool.Free[msgTask]
	txs         pool.Free[Tx]
	allocs      pool.Free[allocOp]
	polls       pool.Free[pollTask]
	reads       pool.Free[readOp]
	recWrites   pool.Free[recWrite]
	vals        pool.Free[valOp]
	verdicts    pool.Free[lockVerdict]
	records     pool.Free[proto.Record]
	remotes     pool.Free[remoteTx]
	lockReplies pool.Free[proto.LockReply]
	answers     pool.Free[answerTask]
	appCalls    pool.Free[appCall]
	replies     pool.Free[rpcReply]
	reports     pool.Free[consumedReport]
	// chunks are the slab chunks this machine's transactions carve from.
	chunks    chunkPool
	valQueues []valQueue // by worker thread
	// pollShards is decodeFrames' per-poll table, one slot per coordinator
	// thread (mod workers); every slot is nil between polls.
	pollShards []*pollTask
	// valScratch backs the read set validationSet sorts. validateSet is
	// done with it when it returns (every verdict comes through the
	// engine), so one per machine serves every commit.
	valScratch []valRead

	// Stats.
	Committed, Aborted uint64
}

// msgTask is one pooled unit of deferred message work: dispatching a
// received message's handler, or handing an outbound message to the
// transport — both run on a worker thread with the CPU cost charged there.
// runFn is bound to the task once at allocation; the task recycles itself
// before invoking the handler, so nested sends can reuse it immediately.
type msgTask struct {
	m     *Machine
	h     *proto.Handler // receive dispatch; nil for send tasks
	src   int
	dst   int
	msg   interface{}
	ctx   trace.Ctx
	send  bool
	runFn func()
}

func (t *msgTask) run() {
	m := t.m
	h, src, dst, msg, ctx, send := t.h, t.src, t.dst, t.msg, t.ctx, t.send
	t.h, t.msg, t.ctx, t.send = nil, nil, trace.Ctx{}, false
	m.tasks.Put(t)
	if !m.alive {
		return
	}
	if send {
		m.tp.enqueue(dst, msg, ctx)
		return
	}
	if m.trb != nil && ctx.Valid() {
		prev := m.curCtx
		m.curCtx = ctx
		h.Fn(src, msg)
		m.curCtx = prev
		return
	}
	h.Fn(src, msg)
}

// regionState is what this machine knows of one region.
type regionState struct {
	// mapping caches the placement, refreshed by NEW-CONFIG and allocation
	// announcements; rep is the replica hosted here, if any.
	mapping *proto.RegionMap
	rep     *replica
	// blocked: lock recovery is pending (§5.3 step 1); activeWaiters run
	// when the region is announced active again.
	blocked       bool
	activeWaiters []func()
	// mappingWaiters await the outstanding mapping fetch; nil when none is.
	mappingWaiters []func()
	// recovery is the region's transaction recovery while this machine
	// runs it as the primary (§5.3), for the configuration of m.recov.
	recovery *regionRecovery
}

// maxRegions bounds the region table: the CM numbers regions 1, 2, 3, ...
// (under 10 000 in the paper's cluster), so it allocated no id this high.
const maxRegions = 1 << 16

// region returns the entry for a region id, nil for one the table does not
// hold: region ids arrive in addresses, log records and messages.
func (m *Machine) region(id uint32) *regionState {
	if uint64(id) >= uint64(len(m.regions)) {
		return nil
	}
	return &m.regions[id]
}

// growRegion is region for an id being installed or waited on: the table
// grows to hold it, and entries move: a *regionState is for immediate use.
func (m *Machine) growRegion(id uint32) *regionState {
	if id >= maxRegions {
		return nil
	}
	if n := int(id) + 1 - len(m.regions); n > 0 {
		m.regions = append(m.regions, make([]regionState, n)...)
	}
	return &m.regions[id]
}

// setMapping installs a copy of rm as the region's cached placement.
func (m *Machine) setMapping(rm *proto.RegionMap) {
	if rs := m.growRegion(rm.Region); rs != nil {
		cp := *rm
		rs.mapping = &cp
	}
}

// regionBlocked reports whether access to a region is blocked pending lock
// recovery.
func (m *Machine) regionBlocked(region uint32) bool {
	rs := m.region(region)
	return rs != nil && rs.blocked
}

// blockUntilActive queues fn until the blocked region is announced active.
func (m *Machine) blockUntilActive(region uint32, fn func()) {
	rs := m.region(region)
	rs.activeWaiters = append(rs.activeWaiters, fn)
}

// unblockRegion releases queued work when a region becomes active.
func (m *Machine) unblockRegion(region uint32) {
	rs := m.region(region)
	if rs == nil {
		return
	}
	waiters := rs.activeWaiters
	rs.blocked, rs.activeWaiters = false, nil
	for _, fn := range waiters {
		fn()
	}
}

// fetchMapping refreshes one region's placement from the CM; fn runs when
// the response (or a failure) arrives.
func (m *Machine) fetchMapping(region uint32, fn func()) {
	rs := m.growRegion(region)
	if rs == nil {
		fn() // no CM numbers a region that high: nothing to fetch
		return
	}
	if rs.mappingWaiters != nil {
		rs.mappingWaiters = append(rs.mappingWaiters, fn)
		return
	}
	rs.mappingWaiters = []func(){fn}
	cm := int(m.config.CM)
	if cm == m.ID {
		// The CM answers from its own table.
		if m.cm != nil {
			if rm := m.cm.mapping(region); rm != nil {
				cp := *rm
				rs.mapping = &cp
			}
		}
		m.wakeMappingWaiters(region)
		return
	}
	req := &proto.MappingReq{Region: region}
	req.ID = m.call(cm, req, func(_ interface{}, err error) {
		// The MAPPING-RESP handler wakes the waiters of an answered fetch.
		if err != nil {
			m.c.Counters.Inc("mapping_fetch_stalled", 1)
			m.wakeMappingWaiters(region)
		}
	})
	m.send(cm, req)
}

func (m *Machine) wakeMappingWaiters(region uint32) {
	rs := m.region(region)
	if rs == nil {
		return
	}
	waiters := rs.mappingWaiters
	rs.mappingWaiters = nil
	for _, fn := range waiters {
		fn()
	}
}

func (c *Cluster) newMachine(id int) *Machine {
	store := nvram.NewStore()
	m := &Machine{
		ID:        id,
		c:         c,
		store:     store,
		pool:      sim.NewThreadPool(c.Eng, c.Opts.Threads, fmt.Sprintf("m%d", id)),
		alive:     true,
		pend:      make(map[mtl]*remoteTx),
		inflight:  make(map[proto.TxID]*Tx),
		nextLocal: make([]uint64, c.Opts.Threads),

		truncThreads: make([]idWindow, c.Opts.Threads),
		pollShards:   make([]*pollTask, c.Opts.Threads),
		valQueues:    make([]valQueue, c.Opts.Threads),
	}
	for i := range m.valQueues {
		// Sixteen steps hold a thread's usual backlog, so the ring grows
		// only at a new peak.
		q := &m.valQueues[i]
		q.m, q.runFn, q.steps = m, q.run, make([]valStep, 16)
	}
	for i := range m.truncThreads {
		m.truncThreads[i] = idWindow{low: 1, ids: make(map[uint64]bool)} // local ids start at 1
	}
	m.initPools()
	m.nic = c.Net.AddMachine(fabric.MachineID(id), store)
	m.tp = newTransport(m)
	m.nic.SetMessageHandler(m.onMessage)
	m.nic.SetWriteHook(m.onRemoteWrite)
	return m
}

// initPools gives each pool of m its constructor, which binds the object's
// continuations once; with the history recorder on (tests and chaos runs)
// every pool is checked (DESIGN.md §12, "Pooled objects").
func (m *Machine) initPools() {
	checked := m.c.Hist != nil
	m.tasks = pool.Free[msgTask]{Checked: checked, New: func() *msgTask {
		t := &msgTask{m: m}
		t.runFn = t.run
		return t
	}}
	m.txs = pool.Free[Tx]{Checked: checked, New: func() *Tx {
		t := &Tx{m: m, set: make([]txEntry, 0, 4)}
		t.failFn = t.fail
		return t
	}}
	m.allocs = pool.Free[allocOp]{Checked: checked, New: func() *allocOp {
		op := &allocOp{m: m}
		op.localFn = op.local
		op.noSpaceFn = op.noSpace
		op.calledFn = op.called
		return op
	}}
	m.polls = pool.Free[pollTask]{Checked: checked, New: func() *pollTask {
		pt := &pollTask{m: m}
		pt.runFn = pt.run
		return pt
	}}
	m.reads = pool.Free[readOp]{Checked: checked, New: func() *readOp {
		op := &readOp{m: m}
		op.startFn = op.start
		op.ownFn = op.deliverOwn
		op.localFn = op.readLocal
		op.issueFn = op.issue
		op.backoffFn = op.refetchMapping
		op.lockRetryFn = op.retryLocked
		op.readDoneFn = op.handle
		return op
	}}
	m.recWrites = pool.Free[recWrite]{Checked: checked, New: func() *recWrite {
		op := &recWrite{m: m}
		op.runFn = op.run
		op.ackFn = op.ack
		return op
	}}
	m.vals = pool.Free[valOp]{Checked: checked, New: func() *valOp {
		op := &valOp{m: m}
		op.readFn = op.readDone
		op.passFn = op.pass
		return op
	}}
	m.verdicts = pool.Free[lockVerdict]{Checked: checked, New: func() *lockVerdict {
		v := &lockVerdict{m: m}
		v.runFn = v.run
		return v
	}}
	m.records = pool.Free[proto.Record]{Checked: checked}
	m.remotes = pool.Free[remoteTx]{Checked: checked}
	m.lockReplies = pool.Free[proto.LockReply]{Checked: checked}
	m.answers = pool.Free[answerTask]{Checked: checked, New: func() *answerTask {
		a := &answerTask{m: m}
		a.runFn = a.run
		return a
	}}
	m.appCalls = pool.Free[appCall]{Checked: checked, New: func() *appCall { return &appCall{pool: m} }}
	m.replies = pool.Free[rpcReply]{Checked: checked, New: func() *rpcReply { return &rpcReply{pool: m} }}
	m.reports = pool.Free[consumedReport]{Checked: checked, New: func() *consumedReport {
		r := &consumedReport{m: m}
		r.runFn = r.run
		return r
	}}
	m.chunks.checked = checked
}

// initLogs makes the peer entry, and with it the log pair, of every machine
// of the cluster; Join adds the entry of a later one.
func (m *Machine) initLogs() {
	for range m.c.Machines {
		m.addPeer()
	}
}

// Alive reports whether the machine's process is running.
func (m *Machine) Alive() bool { return m.alive }

// ConfigID returns the machine's current configuration id.
func (m *Machine) ConfigID() uint64 { return m.config.ID }

// IsCM reports whether this machine currently believes it is the CM.
func (m *Machine) IsCM() bool { return m.alive && m.config.CM == uint16(m.ID) }

// OnThread schedules application work costing cost CPU on worker thread i.
// fn is dropped if the machine has died by the time the work completes.
func (m *Machine) OnThread(i int, cost sim.Time, fn func()) {
	m.pool.ByIndex(i).DoIf(cost, &m.alive, fn)
}

// Counters returns the cluster's protocol counters.
func (m *Machine) Counters() *stats.Counters { return m.c.Counters }

// Threads returns the worker thread count.
func (m *Machine) Threads() int { return m.c.Opts.Threads }

// WorkerBusy returns each worker thread's cumulative service time, in thread
// order; two calls bracket a window to show how evenly its work was spread.
func (m *Machine) WorkerBusy() []sim.Time {
	busy := make([]sim.Time, len(m.pool.Threads))
	for i, th := range m.pool.Threads {
		busy[i] = th.BusyTime()
	}
	return busy
}

// mapping returns the cached placement for a region, nil if there is none.
func (m *Machine) mapping(region uint32) *proto.RegionMap {
	if rs := m.region(region); rs != nil {
		return rs.mapping
	}
	return nil
}

// replica returns this machine's copy of a region, nil if it hosts none.
func (m *Machine) replica(region uint32) *replica {
	if rs := m.region(region); rs != nil {
		return rs.rep
	}
	return nil
}

// HostedRegions lists the data regions this machine holds a replica of, in
// id order (observability for experiments choosing failure victims).
func (m *Machine) HostedRegions() []uint32 {
	var out []uint32
	for id := range m.regions {
		if m.regions[id].rep != nil {
			out = append(out, uint32(id))
		}
	}
	return out
}

// PrimaryOf exposes the cached primary machine for a region (-1 when
// unknown). Applications use it for locality decisions, e.g. TPC-C
// co-partitioning clients with their warehouse, and TATP's function
// shipping of single-field updates (§6.2).
func (m *Machine) PrimaryOf(region uint32) int { return m.primaryOf(region) }

// SetAppHandler installs the handler of application calls (CallApp). FaRM
// applications link with the platform in the same process (§6.2);
// function-shipped operations arrive here, on a worker thread with the
// handling cost charged, and call.Reply answers them.
func (m *Machine) SetAppHandler(h func(src int, req interface{}, call AppCall)) { m.appHandler = h }

// CallApp sends req to the application handler of machine dst and passes cb
// the handler's answer. The call is watched like a read-only VALIDATE: once
// dst leaves the configuration, or txStallTimeout passes unanswered, cb gets
// ErrUnavailable (counted as app_call_stalled) and a late answer is dropped.
// req must not change until the call is back in its pool; one that
// implements fabric.Reclaimer is reclaimed with it, when no copy of the call
// is in flight and no handler still reads it.
func (m *Machine) CallApp(dst int, req interface{}, cb func(resp interface{}, err error)) {
	call := m.appCalls.Get()
	call.Req, call.framed = req, true
	call.ID = m.call(dst, call, cb)
	m.send(dst, call)
}

// AppCall is how an application handler answers one CallApp request.
type AppCall struct {
	m    *Machine
	from int
	id   uint64
}

// Reply sends resp to the caller in a pooled RPC-REPLY, reclaimed with its
// frame.
func (a AppCall) Reply(resp interface{}) {
	m := a.m
	r := m.replies.Get()
	r.ID, r.Body = a.id, resp
	m.send(a.from, r)
}

// appCall carries an application call's request; the answer comes back in
// an rpcReply. It comes from its caller's pool (Machine.appCalls). The fabric
// reclaims it with its frame, once the last copy is delivered or lost, but
// the handler of a delivered copy runs later, on a worker: each delivery
// holds the call until its handler returned. The call goes back to its pool
// when neither holds it, with its request if that is a fabric.Reclaimer; a
// delivery whose machine dies first leaves it to the collector.
type appCall struct {
	ID  uint64
	Req interface{}

	pool   *Machine // the caller, whose pool it returns to
	framed bool     // in a frame the fabric has not reclaimed
	held   int      // deliveries whose handler has not returned
}

// Reclaim is the fabric's: the frame's last copy was delivered or lost.
func (c *appCall) Reclaim() {
	c.framed = false
	c.free()
}

// release ends one delivery's hold, once its handler returned.
func (c *appCall) release() {
	c.held--
	c.free()
}

func (c *appCall) free() {
	if c.framed || c.held > 0 {
		return
	}
	if r, ok := c.Req.(fabric.Reclaimer); ok {
		r.Reclaim()
	}
	c.ID, c.Req = 0, nil
	c.pool.appCalls.Put(c)
}

// primaryOf returns the primary machine for a region, or -1 if unknown.
func (m *Machine) primaryOf(region uint32) int {
	rm := m.mapping(region)
	if rm == nil || len(rm.Replicas) == 0 {
		return -1
	}
	return int(rm.Replicas[0])
}

// isMember applies precise membership (§5.2): operations are only issued
// to, and replies only accepted from, machines in the current
// configuration.
func (m *Machine) isMember(id int) bool { return m.config.Member(uint16(id)) }

// Member reports whether a machine id belongs to this machine's view of
// the configuration (observability).
func (m *Machine) Member(id int) bool { return m.isMember(id) }

// LogSpaceReport returns, per destination machine (an entry for every id
// below the cluster's size), the free/reserved/appended/consumed state of
// this machine's log writers (diagnostics for space-leak hunting).
func (m *Machine) LogSpaceReport() map[int][4]int {
	out := make(map[int][4]int, len(m.peers))
	for dst, p := range m.peers {
		w := p.logW
		out[dst] = [4]int{w.FreeBytes(), w.ReservedBytes(), int(w.Appended()), int(w.ConsumedEstimate())}
	}
	return out
}

// onMessage is the NIC upcall for reliable sends. A member's transport
// sends every message in a frame of its own, unpacked here (in completion
// context, free — the real cost is the per-message handling charged in
// dispatchMsg); the loop is what keeps a duplicated frame or one carrying
// several messages correct. External clients have no transport: their
// requests arrive bare, unstamped and untraced.
func (m *Machine) onMessage(src fabric.MachineID, msg interface{}) {
	if !m.alive {
		return
	}
	s := int(src)
	b, ok := msg.(*fabric.Batch)
	if !ok {
		m.dispatchMsg(s, msg, 0, trace.Ctx{})
		return
	}
	for i, inner := range b.Msgs {
		var stamp sim.Time
		if i < len(b.Stamps) {
			stamp = b.Stamps[i]
		}
		var ctx trace.Ctx
		if i < len(b.Ctxs) {
			ctx = b.Ctxs[i]
		}
		m.dispatchMsg(s, inner, stamp, ctx)
	}
}

// dispatchMsg routes one received message through the handler registry:
// count it, record its delivery latency, and run its handler on a worker
// thread with the handling cost charged there. Unregistered types are
// counted as drops instead of vanishing silently. ctx is the sender's
// causal context: a traced arrival is recorded as a receive annotation and
// the handler runs with curCtx set, so replies it sends inherit the
// sender's span as parent.
func (m *Machine) dispatchMsg(src int, msg interface{}, stamp sim.Time, ctx trace.Ctx) {
	h := m.tp.reg.Lookup(msg)
	if h == nil || h.Fn == nil {
		m.c.Counters.Inc("msg unknown", 1)
		return
	}
	*h.RecvCell++
	if stamp > 0 {
		m.c.MsgLatency.Record(h.Name, m.c.Eng.Now()-stamp)
	}
	if m.trb != nil && ctx.Valid() {
		// h.RecvCounter ("msg NAME") doubles as the precomputed event name.
		m.trb.Event("msg", h.RecvCounter, m.c.Eng.Now(), ctx.Trace, ctx.Span, int64(src))
	}
	*m.c.cCPURecv += uint64(cpuMsg)
	switch v := msg.(type) {
	case *proto.LockReply:
		// The sender reclaims the reply with its frame once this upcall
		// returns: the verdict goes on by value, in a pooled carrier.
		m.pool.Dispatch(cpuMsg, m.newLockVerdict(src, v.Tx, v.OK, ctx).runFn)
		return
	case *rpcReply:
		// So may an RPC-REPLY's sender: its answer goes on by value too.
		a := m.answers.Get()
		a.id, a.body, a.ctx = v.ID, v.Body, ctx
		m.pool.Dispatch(cpuMsg, a.runFn)
		return
	case *appCall:
		// The caller reclaims the call once its frame is reclaimed and no
		// handler reads it: this delivery holds it until the APP handler
		// returned.
		v.held++
	case *proto.LeaseRequest, *proto.LeaseGrant:
		// A lease RPC (LeaseRPC) is pooled by its sender too, and goes on
		// by value.
		if m.lease != nil {
			m.pool.Dispatch(cpuMsg, m.lease.received(src, msg).processFn)
			return
		}
	}
	tk := m.tasks.Get()
	tk.h, tk.src, tk.msg, tk.ctx = h, src, msg, ctx
	if v, ok := msg.(*proto.RecoveryVote); ok {
		// Votes go to the peer thread of the coordinator thread (§5.3).
		m.pool.ByIndex(int(v.Tx.Thread)).Do(cpuMsg, tk.runFn)
		return
	}
	m.pool.Dispatch(cpuMsg, tk.runFn)
}

// pollDelay models the gap between a log write landing and the receiver's
// event loop noticing it.
const pollDelay = 1 * sim.Microsecond

// onRemoteWrite reacts to writes landing in local memory; for log regions it
// schedules a poll of that sender's ring. The machine's own ring is never
// polled: this process wrote what lands there, and handles it on the spot,
// shard by shard, before the write's ack runs. The item that appended a
// record was charged its per-object work (writeTxRecord); a LOCK verdict
// still goes to the coordinator's thread (handOffLockVerdict).
func (m *Machine) onRemoteWrite(region nvram.RegionID, _, _ int) {
	if !m.alive {
		return
	}
	r := uint32(region)
	if r&0x80000000 == 0 {
		return // not a log; data-recovery writes need no upcall
	}
	sender := int(r &^ 0x80000000)
	p := m.peer(sender)
	if p == nil {
		return
	}
	lr := p.logR
	if lr.rd == nil {
		lr.rd = ring.NewPagedReader(lr.mem) // the ring's first frame
	}
	if lr.pollScheduled {
		return
	}
	if sender == m.ID {
		m.decodeFrames(lr)
		preDrain := m.lastDrained < m.config.ID
		for s, pt := range m.pollShards {
			if pt != nil {
				m.pollShards[s] = nil
				pt.preDrain = preDrain
				pt.runFn()
			}
		}
		return
	}
	lr.pollScheduled = true
	m.c.Eng.After(pollDelay, lr.pollFn)
}

// parsedRecord is one item of a polled batch: a decoded log record with its
// frame's sequence number, or — split set — the one piggybacked truncation
// id, truncID, that a record of type typ from transaction tx carried for
// another coordinator thread. A split item holds no pointer to its carrier:
// the carrier's own shard, on another worker, may have recycled it first.
type parsedRecord struct {
	rec     *proto.Record
	seq     uint64
	truncID uint64
	split   bool
	typ     proto.RecordType
	tx      proto.TxID
}

// pollTask carries one coordinator thread's share of a polled batch to the
// worker thread that processes it (a batch of the self ring is handled at
// once, onRemoteWrite). Like msgTask it is pooled with runFn bound once; it
// recycles itself once the records are handled, before the drain barrier
// runs. Its records come from the machine's pool too, and
// handleRecord decides whether each goes back (DESIGN.md §12); the records
// of a batch dropped with a dead machine are left to the collector.
type pollTask struct {
	m     *Machine
	lr    *logReader
	batch []parsedRecord
	cost  sim.Time // CPU cost of processing batch
	// preDrain marks frames captured before a drain: they must be
	// processed with drain semantics even if the worker thread gets to
	// them afterwards.
	preDrain bool
	done     func() // drain barrier (drainLog), nil for ordinary polls
	runFn    func()
}

// shardFor returns the task collecting coordinator thread `thread`'s records
// in the poll being decoded, made on its first record. A thread id comes
// off the wire: it is only ever used modulo the worker count.
func (m *Machine) shardFor(lr *logReader, thread uint16) *pollTask {
	s := int(thread) % len(m.pollShards)
	pt := m.pollShards[s]
	if pt == nil {
		pt = m.polls.Get()
		pt.lr = lr
		m.pollShards[s] = pt
	}
	return pt
}

// decodeFrames decodes newly polled frames of lr and splits them by
// coordinator thread into m.pollShards, each shard in ring order and
// charged the CPU cost of its own records. Log order only matters within a
// transaction, whose records all come from one coordinator thread. Its
// truncation id does not: truncQueue is per destination, so the id rides
// whichever thread's record leaves next. An id of another thread moves to
// that thread's shard, behind the transaction's own records; left with its
// carrier it could overtake them on another worker, and the COMMIT-BACKUP
// of a truncated transaction is dropped unapplied. Garbage frames are
// skipped; recovery re-examines logs anyway.
func (m *Machine) decodeFrames(lr *logReader) {
	if lr.rd == nil {
		return // nothing was ever written to this ring
	}
	for _, f := range lr.rd.Poll() {
		rec := m.records.Get()
		if proto.DecodeRecord(f.Payload, rec) != nil {
			m.putRecord(rec)
			continue
		}
		pt := m.shardFor(lr, rec.Tx.Thread)
		pt.batch = append(pt.batch, parsedRecord{rec: rec, seq: f.Seq})
		pt.cost += cpuMsg/4 + sim.Time(len(rec.Writes))*cpuPerObject
		own := rec.TruncIDs[:0]
		for _, id := range rec.TruncIDs {
			if thread, _ := unpackTruncID(id); thread != rec.Tx.Thread {
				owner := m.shardFor(lr, thread)
				owner.batch = append(owner.batch, parsedRecord{seq: f.Seq, truncID: id, split: true, typ: rec.Type, tx: rec.Tx})
			} else {
				own = append(own, id)
			}
		}
		rec.TruncIDs = own
	}
}

// dispatchShards hands every shard decodeFrames filled to its worker:
// (sender + coordinator thread) mod workers. One (sender, thread) always
// maps to one worker, so its records are handled in ring order; the sender
// offset keeps a coordinator thread from also serving its same-numbered
// peers on every other machine. A drain barrier also goes, as a zero-cost
// item, to the workers that got no records.
func (m *Machine) dispatchShards(lr *logReader, preDrain bool, done func()) {
	for s, pt := range m.pollShards {
		if pt == nil {
			if done == nil {
				continue
			}
			pt = m.shardFor(lr, uint16(s))
		}
		m.pollShards[s] = nil
		pt.preDrain, pt.done = preDrain, done
		*m.c.cCPURecords += uint64(pt.cost)
		m.pool.ByIndex(lr.src+s).Do(pt.cost, pt.runFn)
	}
}

func (pt *pollTask) recycle() {
	clear(pt.batch)
	pt.batch = pt.batch[:0]
	pt.lr, pt.done, pt.preDrain, pt.cost = nil, nil, false, 0
	pt.m.polls.Put(pt)
}

func (pt *pollTask) run() {
	m, lr, done, preDrain := pt.m, pt.lr, pt.done, pt.preDrain
	if !m.alive {
		// Processing lost with the process; the records are still in the
		// non-volatile log — surface them to the next poll/drain. Each
		// shard rewinds to its own first frame: the reader keeps the
		// earliest, and replays are idempotent.
		if len(pt.batch) > 0 {
			lr.rd.RewindTo(pt.batch[0].seq)
		}
	} else {
		for _, p := range pt.batch {
			if p.split {
				m.truncateSplit(p, preDrain)
			} else {
				m.handleRecord(lr, p.rec, p.seq, preDrain)
			}
		}
		if done == nil {
			m.maybeReportConsumed(lr)
		}
	}
	pt.recycle()
	if done != nil {
		done()
	}
}

// truncateSplit applies a truncation id that decodeFrames split off its
// carrier, unless handleRecord drops the carrier's piggyback with it: the
// non-member gate, which explicit TRUNCATEs do not pass through.
func (m *Machine) truncateSplit(p parsedRecord, preDrain bool) {
	if p.typ != proto.RecTruncate && m.fromNonMember(p.tx, preDrain) {
		return
	}
	thread, local := unpackTruncID(p.truncID)
	m.truncateTx(proto.CoordKey{Machine: p.tx.Machine, Thread: thread}, local)
}

// pollLog processes newly arrived frames of one peer's log on the worker
// threads, sharded by coordinator thread: every worker shares the load of
// a busy ring, and one transaction's records stay ordered.
func (m *Machine) pollLog(lr *logReader) {
	m.decodeFrames(lr)
	m.dispatchShards(lr, m.lastDrained < m.config.ID, nil)
}

// maybeReportConsumed lazily tells the sender how far its ring has been
// truncated (modelled as a NIC-level write of the head pointer).
func (m *Machine) maybeReportConsumed(lr *logReader) {
	consumed := lr.rd.ConsumedBytes()
	if consumed-lr.reported < uint64(m.c.Opts.LogCapacity/8) {
		return
	}
	lr.reported = consumed
	src := lr.src
	if src == m.ID {
		// The self ring's writer is in this process: no write, no wire.
		m.peer(src).logW.UpdateConsumed(consumed)
		return
	}
	m.c.Net.Counters.Inc("rdma_write", 1)
	r := m.reports.Get()
	r.src, r.consumed = src, consumed
	m.c.Eng.After(m.c.Opts.Fabric.WireLatency+sim.Microsecond, r.runFn)
}

// consumedReport is one consumption report on its way to the ring's sender:
// pooled by the reporting machine, its event bound once, and back in the
// pool before the sender's writer takes the value.
type consumedReport struct {
	m        *Machine
	src      int
	consumed uint64
	runFn    func()
}

func (r *consumedReport) run() {
	m, src, consumed := r.m, r.src, r.consumed
	m.reports.Put(r)
	if sender := m.c.Machines[src]; sender.alive {
		sender.peer(m.ID).logW.UpdateConsumed(consumed)
	}
}

// installReplica makes mem this machine's replica of a region in the table.
func (m *Machine) installReplica(region uint32, mem *regionmem.Region, size int, primary bool) *replica {
	r := &replica{
		id:        region,
		mem:       mem,
		size:      size,
		primary:   primary,
		active:    true,
		lockOwner: make(map[uint32]proto.TxID),
	}
	if primary {
		r.alloc = regionmem.NewAllocator(m.c.Opts.Layout, mem)
		r.alloc.OnNewBlock(r.foldClaimed)
	}
	m.region(region).rep = r
	return r
}

// foldClaimed is the allocator's hook: it folds each block the primary
// claims into its digest domain (backups learn the class in learnClasses).
func (r *replica) foldClaimed(block, _ int) { r.dig.FoldBlock(r.mem, block) }

// sendMsg is the one body behind the send* wrappers below: it transmits a
// reliable message through the transport, charging the sender-side CPU cost
// to worker `thread` (anyThread: the least loaded). All control-plane sends
// funnel through here; only the lease manager talks to the NIC directly.
// ctx is the message's causal parent, captured by the wrappers while the
// handler context is live (the transport enqueue runs later, on the worker).
func (m *Machine) sendMsg(thread, dst int, msg interface{}, ctx trace.Ctx) {
	if !m.alive {
		return
	}
	tk := m.tasks.Get()
	tk.send, tk.dst, tk.msg, tk.ctx = true, dst, msg, ctx
	*m.c.cCPUSend += uint64(cpuMsg)
	if thread == anyThread {
		m.pool.Dispatch(cpuMsg, tk.runFn)
		return
	}
	m.pool.ByIndex(thread).Do(cpuMsg, tk.runFn)
}

const anyThread = -1

// The wrappers: the running handler's context or an explicit one (Ctx: timer
// closures of NEW-CONFIG pushes, recovery votes and decisions have no live
// handler), any worker or a named one (FromThread).
func (m *Machine) send(dst int, msg interface{}) { m.sendMsg(anyThread, dst, msg, m.curCtx) }
func (m *Machine) sendCtx(dst int, msg interface{}, ctx trace.Ctx) {
	m.sendMsg(anyThread, dst, msg, ctx)
}
func (m *Machine) sendFromThreadCtx(thread, dst int, msg interface{}, ctx trace.Ctx) {
	m.sendMsg(thread, dst, msg, ctx)
}
