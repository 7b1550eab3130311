// Package fabric simulates an RDMA network: NICs that serve one-sided READ
// and WRITE verbs against registered memory without involving the remote
// CPU, reliable two-sided sends, and connectionless unreliable datagrams.
//
// The model preserves the properties FaRM's protocols are designed around:
//
//   - One-sided operations are acknowledged by the remote NIC as long as the
//     remote *machine* is powered, regardless of what the remote software
//     thinks the cluster configuration is. NICs do not understand leases or
//     configurations (§5.2), so stale writes can land and be acked — the
//     hazard FaRM's precise membership and log draining exist to handle.
//   - A crashed initiator's in-flight operations still take effect at the
//     destination; only the initiator's completion is suppressed.
//   - NICs are finite-rate servers, so message-rate bottlenecks (Figure 2 in
//     [16]'s single-NIC regime) are reproducible by configuration.
//
// CPU costs are deliberately NOT charged here: the point of one-sided RDMA
// is which operations consume CPU, and that accounting belongs to the layer
// that owns the CPUs (internal/core charges verb-issue and message-handling
// costs to its simulated threads).
//
// Hot-path discipline: the per-verb and per-send machinery (the multi-leg
// wire state machines, write-payload staging buffers, coalesced Batch
// frames) is pooled on the Network and every stage continuation is a
// closure bound once at pool-insertion time, so the steady-state cost of a
// verb or send is zero heap allocations beyond the payload bytes that
// escape to the caller. NIC and partition lookups are dense slice indexes,
// not map hits, and hot counters are pre-resolved cells.
package fabric

import (
	"errors"
	"fmt"
	"math/bits"

	"farm/internal/nvram"
	"farm/internal/pool"
	"farm/internal/sim"
	"farm/internal/stats"
	"farm/internal/trace"
)

// MachineID identifies a machine (and its NIC) in the fabric.
type MachineID int

// Errors returned to one-sided completion callbacks.
var (
	// ErrTimeout: the destination did not respond (dead or partitioned);
	// reported after Options.FailTimeout, modelling RC retry exhaustion.
	ErrTimeout = errors.New("fabric: operation timed out")
	// ErrBadAddress: the destination NIC has no such registered region or
	// the access is out of bounds (remote access error completion).
	ErrBadAddress = errors.New("fabric: remote access error")
)

// Options are the calibrated hardware constants. Zero values are replaced
// by DefaultOptions values in NewNetwork.
type Options struct {
	// WireLatency is the one-way propagation + switch latency.
	WireLatency sim.Time
	// WireJitter adds a uniform [0, WireJitter) delay per hop.
	WireJitter sim.Time
	// NICOpTime is the NIC processing time per verb (message-rate cap is
	// 1/NICOpTime per direction).
	NICOpTime sim.Time
	// BytesPerSecond is the per-NIC link bandwidth.
	BytesPerSecond float64
	// FailTimeout is how long the initiator waits before reporting
	// ErrTimeout for an unresponsive destination.
	FailTimeout sim.Time
	// UDLossProb is the drop probability for unreliable datagrams.
	UDLossProb float64
	// LocalOpTime is the latency of a same-machine memory access used when
	// the initiator and destination coincide (no NIC, no wire).
	LocalOpTime sim.Time
}

// DefaultOptions models two bonded ConnectX-3 56 Gbps FDR NICs per machine
// on one full-bisection switch (§6.1).
func DefaultOptions() Options {
	return Options{
		WireLatency:    900 * sim.Nanosecond,
		WireJitter:     200 * sim.Nanosecond,
		NICOpTime:      15 * sim.Nanosecond, // ~70M verbs/s/machine (2 NICs)
		BytesPerSecond: 13e9,                // 2 × 56 Gbps, minus headers
		FailTimeout:    500 * sim.Microsecond,
		UDLossProb:     0.0001,
		LocalOpTime:    100 * sim.Nanosecond,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.WireLatency == 0 {
		o.WireLatency = d.WireLatency
	}
	if o.WireJitter == 0 {
		o.WireJitter = d.WireJitter
	}
	if o.NICOpTime == 0 {
		o.NICOpTime = d.NICOpTime
	}
	if o.BytesPerSecond == 0 {
		o.BytesPerSecond = d.BytesPerSecond
	}
	if o.FailTimeout == 0 {
		o.FailTimeout = d.FailTimeout
	}
	if o.LocalOpTime == 0 {
		o.LocalOpTime = d.LocalOpTime
	}
	return o
}

// Network is the switch connecting all NICs.
type Network struct {
	Eng      *sim.Engine
	Opts     Options
	Counters *stats.Counters

	// nics and partition are dense tables indexed by MachineID (machines
	// are small ids; external clients live above 1000 — still tiny).
	nics      []*NIC
	partition []int32
	// linkFaults/machineFaults are the nemesis layer's fault tables
	// (nemesis.go), consulted per directed leg on every verb and send.
	linkFaults    map[linkKey]LinkFault
	machineFaults map[MachineID]MachineFault

	// Free lists for the per-operation machinery. Ops, batches and
	// write-staging buffers cycle through these so steady state allocates
	// nothing.
	verbs   pool.Free[verbOp]
	sends   pool.Free[sendOp]
	batches pool.Free[Batch]
	bufFree [bufBuckets][][]byte

	// Pre-resolved counter cells for the per-event hot paths.
	cLocalRead, cRDMARead, cRDMAReadBytes    *uint64
	cLocalWrite, cRDMAWrite, cRDMAWriteBytes *uint64
	cMsgSend, cMsgSendBytes, cMsgCoalesced   *uint64
	cUDSend, cUDDropped, cMsgLost            *uint64
	cCompletionLost, cFaultDrop, cFaultDup   *uint64
}

// NewNetwork creates an empty network on the given engine.
func NewNetwork(eng *sim.Engine, opts Options) *Network {
	n := &Network{
		Eng:           eng,
		Opts:          opts.withDefaults(),
		Counters:      stats.NewCounters(),
		linkFaults:    make(map[linkKey]LinkFault),
		machineFaults: make(map[MachineID]MachineFault),
	}
	n.cLocalRead = n.Counters.Cell("local_read")
	n.cRDMARead = n.Counters.Cell("rdma_read")
	n.cRDMAReadBytes = n.Counters.Cell("rdma_read_bytes")
	n.cLocalWrite = n.Counters.Cell("local_write")
	n.cRDMAWrite = n.Counters.Cell("rdma_write")
	n.cRDMAWriteBytes = n.Counters.Cell("rdma_write_bytes")
	n.cMsgSend = n.Counters.Cell("msg_send")
	n.cMsgSendBytes = n.Counters.Cell("msg_send_bytes")
	n.cMsgCoalesced = n.Counters.Cell("msg_send_coalesced")
	n.cUDSend = n.Counters.Cell("ud_send")
	n.cUDDropped = n.Counters.Cell("ud_dropped")
	n.cMsgLost = n.Counters.Cell("msg_lost")
	n.cCompletionLost = n.Counters.Cell("completion_lost")
	n.cFaultDrop = n.Counters.Cell("fault_send_dropped")
	n.cFaultDup = n.Counters.Cell("fault_send_dup")
	n.verbs.New = func() *verbOp {
		op := &verbOp{net: n}
		op.txFn = op.txDone
		op.arriveFn = op.arrive
		op.execFn = op.exec
		op.returnFn = op.ret
		op.completeFn = op.complete
		op.failFn = op.failFire
		op.localFn = op.local
		return op
	}
	n.sends.New = func() *sendOp {
		op := &sendOp{net: n}
		op.txFn = op.txDone
		op.arriveFn = op.arrive
		op.deliverFn = op.deliver
		return op
	}
	n.batches.New = func() *Batch { return &Batch{pooled: true} }
	return n
}

// grow extends the dense id tables to cover id.
func (n *Network) grow(id MachineID) {
	for int(id) >= len(n.nics) {
		n.nics = append(n.nics, nil)
		n.partition = append(n.partition, 0)
	}
}

// nic returns the NIC for id, or nil (dense index, no map hit).
func (n *Network) nic(id MachineID) *NIC {
	if id < 0 || int(id) >= len(n.nics) {
		return nil
	}
	return n.nics[id]
}

// AddMachine registers a machine's NIC, backed by its non-volatile memory
// store (the memory one-sided verbs address).
func (n *Network) AddMachine(id MachineID, mem *nvram.Store) *NIC {
	n.grow(id)
	if n.nics[id] != nil {
		panic(fmt.Sprintf("fabric: machine %d already registered", id))
	}
	nic := &NIC{
		ID:      id,
		net:     n,
		mem:     mem,
		powered: true,
		tx:      sim.NewThread(n.Eng, fmt.Sprintf("nic%d/tx", id)),
		rx:      sim.NewThread(n.Eng, fmt.Sprintf("nic%d/rx", id)),
	}
	n.nics[id] = nic
	return nic
}

// NIC returns the NIC for machine id, or nil.
func (n *Network) NIC(id MachineID) *NIC { return n.nic(id) }

// SetPartition assigns machines to connectivity groups; unlisted machines
// are group 0.
func (n *Network) SetPartition(groups map[MachineID]int) {
	for i := range n.partition {
		n.partition[i] = 0
	}
	for id, g := range groups {
		n.grow(id)
		n.partition[id] = int32(g)
	}
}

// HealPartition restores full connectivity.
func (n *Network) HealPartition() {
	for i := range n.partition {
		n.partition[i] = 0
	}
}

func (n *Network) partitionOf(id MachineID) int32 {
	if id < 0 || int(id) >= len(n.partition) {
		return 0
	}
	return n.partition[id]
}

func (n *Network) hop() sim.Time {
	return n.Opts.WireLatency + n.Eng.Rand().Duration(n.Opts.WireJitter+1)
}

// --- write-payload staging buffers ---

// bufBuckets is the number of power-of-two size classes pooled for
// one-sided write staging copies (8 B .. 64 KB); larger payloads fall back
// to plain allocation.
const bufBuckets = 14

func bufBucket(size int) int {
	if size <= 8 {
		return 0
	}
	b := bits.Len(uint(size-1)) - 3
	if b >= bufBuckets {
		return -1
	}
	return b
}

// getBuf returns a buffer of the exact length requested, reusing a pooled
// backing array when one fits.
func (n *Network) getBuf(size int) []byte {
	b := bufBucket(size)
	if b < 0 {
		return make([]byte, size)
	}
	if k := len(n.bufFree[b]); k > 0 {
		buf := n.bufFree[b][k-1]
		n.bufFree[b] = n.bufFree[b][:k-1]
		return buf[:size]
	}
	return make([]byte, size, 8<<b)
}

func (n *Network) putBuf(buf []byte) {
	b := bufBucket(cap(buf))
	if b < 0 || cap(buf) != 8<<b {
		return
	}
	n.bufFree[b] = append(n.bufFree[b], buf[:cap(buf)])
}

// NIC is one machine's network interface. One-sided verbs execute entirely
// in NIC context: the remote host CPU is never involved.
type NIC struct {
	ID  MachineID
	net *Network
	mem *nvram.Store

	powered bool
	tx, rx  *sim.Thread

	// msgHandler receives reliable sends; udHandler receives datagrams.
	// Both run in "NIC completion" context: the host must dispatch to its
	// own CPU threads and charge costs there.
	msgHandler func(src MachineID, msg interface{})
	udHandler  func(src MachineID, msg interface{})
	// writeHook observes remote writes landing in local memory (region,
	// offset, length). FaRM hosts use it to schedule log polling without
	// the simulator running a busy poll loop. It fires even while the host
	// process is down — like real memory, the bytes land regardless — and
	// the host side decides whether anyone is alive to look.
	writeHook func(region nvram.RegionID, off, length int)
}

// SetMessageHandler installs the reliable-send upcall.
func (c *NIC) SetMessageHandler(h func(src MachineID, msg interface{})) { c.msgHandler = h }

// SetUDHandler installs the unreliable-datagram upcall.
func (c *NIC) SetUDHandler(h func(src MachineID, msg interface{})) { c.udHandler = h }

// SetWriteHook installs the remote-write observer.
func (c *NIC) SetWriteHook(h func(region nvram.RegionID, off, length int)) { c.writeHook = h }

// SetPowered turns the NIC (and with it, the machine's reachability) on or
// off. A FaRM process kill is modelled as SetPowered(false): reads to the
// machine fail, which is what the reconfiguration probe step detects.
func (c *NIC) SetPowered(on bool) { c.powered = on }

// Powered reports the NIC state.
func (c *NIC) Powered() bool { return c.powered }

// Mem exposes the memory store the NIC serves verbs against.
func (c *NIC) Mem() *nvram.Store { return c.mem }

// Engine exposes the simulation engine driving this NIC, for layers that
// need to schedule retries (e.g. ring-writer retransmission) without holding
// a Network reference.
func (c *NIC) Engine() *sim.Engine { return c.net.Eng }

// --- one-sided verbs ---

type verbKind uint8

const (
	verbProbe verbKind = iota
	verbRead
	verbWrite
)

// verbOp is the pooled state machine of one one-sided verb: src tx NIC →
// wire → dst rx NIC (execute against memory) → wire → src rx NIC
// (completion). Each wire leg is checked and delayed independently
// (nemesis.go), so an asymmetric cut can lose the completion of a verb
// whose remote effect already landed — the initiator then sees ErrTimeout
// for an operation that actually executed, the ambiguity FaRM's recovery
// protocols must absorb.
//
// The stage continuations (txFn..failFn) are bound to the op once when it
// is first allocated and reused for the op's whole pooled lifetime, so a
// steady-state verb schedules through them without allocating.
type verbOp struct {
	net     *Network
	src     *NIC
	dst     MachineID
	kind    verbKind
	region  nvram.RegionID
	off     int
	length  int    // read/probe length
	payload []byte // write staging copy (pooled)

	readCb  func(data []byte, err error)
	writeCb func(err error)

	data []byte // the read's destination, the initiator's buffer
	err  error

	txFn, arriveFn, execFn, returnFn, completeFn, failFn, localFn func()
}

func (op *verbOp) recycle() {
	if op.payload != nil {
		op.net.putBuf(op.payload)
	}
	op.src = nil
	op.payload, op.data = nil, nil
	op.readCb, op.writeCb = nil, nil
	op.err = nil
	op.net.verbs.Put(op)
}

// wireBytes is the verb's modeled transfer size on the wire.
func (op *verbOp) wireBytes() int {
	if op.kind == verbWrite {
		return len(op.payload)
	}
	return op.length
}

// start issues the verb. Dead initiators complete nothing.
func (op *verbOp) start(c *NIC) {
	net := op.net
	op.src = c
	if !c.powered {
		op.recycle()
		return
	}
	if op.dst == c.ID {
		// Same-machine fast path: a plain memory access, no NIC or wire.
		net.Eng.After(net.Opts.LocalOpTime, op.localFn)
		return
	}
	c.tx.Do(net.nicOpTime(c.ID)+net.xferTime(c.ID, op.wireBytes()), op.txFn)
}

func (op *verbOp) local() {
	c := op.src
	if !c.powered {
		op.recycle()
		return
	}
	op.execOn(c)
	op.finish()
}

func (op *verbOp) txDone() {
	net, c := op.net, op.src
	net.Eng.After(net.hop()+net.legDelay(c.ID, op.dst), op.arriveFn)
}

func (op *verbOp) arrive() {
	net, c := op.net, op.src
	r := net.nic(op.dst)
	if r == nil || !r.powered || !net.legUp(c.ID, op.dst) {
		op.fail()
		return
	}
	r.rx.Do(net.nicOpTime(op.dst), op.execFn)
}

func (op *verbOp) exec() {
	net, c := op.net, op.src
	// Execute against remote memory in NIC context. The remote machine may
	// have died between scheduling and service.
	r := net.nic(op.dst)
	if !r.powered || !net.legUp(c.ID, op.dst) {
		op.fail()
		return
	}
	op.execOn(r)
	// The remote effect is durable from here on; only the completion can
	// still be lost.
	if !net.legUp(op.dst, c.ID) {
		*net.cCompletionLost++
		op.fail()
		return
	}
	net.Eng.After(net.hop()+net.legDelay(op.dst, c.ID)+net.xferTime(op.dst, op.wireBytes()), op.returnFn)
}

// execOn performs the verb's memory effect on NIC r (which may be the
// initiator itself on the local fast path).
func (op *verbOp) execOn(r *NIC) {
	switch op.kind {
	case verbRead:
		if !r.mem.ReadAt(op.region, op.off, op.data) {
			op.err = ErrBadAddress
		}
	case verbWrite:
		b := r.mem.Region(op.region)
		if b == nil || op.off < 0 || op.off+len(op.payload) > len(b) {
			op.err = ErrBadAddress
			return
		}
		copy(b[op.off:], op.payload)
		if r.writeHook != nil {
			r.writeHook(op.region, op.off, len(op.payload))
		}
	case verbProbe:
	}
}

func (op *verbOp) ret() {
	c := op.src
	if !c.powered {
		op.recycle()
		return
	}
	c.rx.Do(op.net.nicOpTime(c.ID), op.completeFn)
}

func (op *verbOp) complete() {
	if !op.src.powered {
		op.recycle()
		return
	}
	op.finish()
}

// fail arms the initiator-side timeout: the destination is dead, cut or
// lost the completion; the initiator reports ErrTimeout after FailTimeout.
func (op *verbOp) fail() {
	op.net.Eng.After(op.net.Opts.FailTimeout, op.failFn)
}

func (op *verbOp) failFire() {
	if !op.src.powered {
		op.recycle()
		return
	}
	op.data, op.err = nil, ErrTimeout
	op.finish()
}

// finish invokes the caller's completion callback and recycles the op. The
// op is recycled first (fields copied out) so the callback may immediately
// issue new verbs that reuse it.
func (op *verbOp) finish() {
	kind, data, err := op.kind, op.data, op.err
	readCb, writeCb := op.readCb, op.writeCb
	op.recycle()
	if kind == verbRead {
		if readCb == nil {
			return
		}
		if err != nil {
			readCb(nil, err)
			return
		}
		readCb(data, nil)
		return
	}
	if writeCb != nil {
		writeCb(err)
	}
}

// Read issues a one-sided RDMA read of length bytes at (region, off) on
// dst into a fresh buffer, which cb receives with the data, or an error. No
// remote CPU is involved; the remote NIC serves the request from registered
// memory.
func (c *NIC) Read(dst MachineID, region nvram.RegionID, off, length int, cb func(data []byte, err error)) {
	c.ReadInto(dst, region, off, make([]byte, length), cb)
}

// ReadInto is Read landing in buf, as an RDMA READ lands in the buffer its
// initiator names: it reads len(buf) bytes, and cb receives buf filled or an
// error. The fabric writes buf only before cb, and keeps no reference to it.
func (c *NIC) ReadInto(dst MachineID, region nvram.RegionID, off int, buf []byte, cb func(data []byte, err error)) {
	net := c.net
	if dst == c.ID {
		*net.cLocalRead++
	} else {
		*net.cRDMARead++
		*net.cRDMAReadBytes += uint64(len(buf))
	}
	op := net.verbs.Get()
	op.dst, op.kind = dst, verbRead
	op.region, op.off, op.length = region, off, len(buf)
	op.data = buf
	op.readCb = cb
	op.start(c)
}

// Write issues a one-sided RDMA write of data at (region, off) on dst. cb
// is the hardware ack: it fires when the remote NIC has placed the bytes in
// remote non-volatile memory, with no remote CPU involvement.
func (c *NIC) Write(dst MachineID, region nvram.RegionID, off int, data []byte, cb func(err error)) {
	net := c.net
	if dst == c.ID {
		*net.cLocalWrite++
	} else {
		*net.cRDMAWrite++
		*net.cRDMAWriteBytes += uint64(len(data))
	}
	payload := net.getBuf(len(data))
	copy(payload, data)
	op := net.verbs.Get()
	op.dst, op.kind = dst, verbWrite
	op.region, op.off = region, off
	op.payload = payload
	op.writeCb = cb
	op.start(c)
}

// Probe issues a minimal one-sided read used by the reconfiguration
// protocol to test liveness (§5.2 step 2); it succeeds iff the destination
// NIC is powered and reachable.
func (c *NIC) Probe(dst MachineID, cb func(err error)) {
	net := c.net
	*net.cRDMARead++
	op := net.verbs.Get()
	op.dst, op.kind = dst, verbProbe
	op.length = 8
	op.writeCb = cb
	op.start(c)
}

// Batch is one coalesced fabric frame carrying several small control
// messages to the same destination. The receiver's message handler gets
// the Batch itself and dispatches the contained messages individually.
// Stamps carries each message's enqueue time (for queueing-latency stats);
// Ctxs carries each message's causal trace context. Each is either empty
// or parallel to Msgs, so untraced runs pay nothing for the extra field.
//
// Batches obtained from NIC.GetBatch are pooled: the fabric reclaims them
// after the final delivery (or loss), so a sender must treat the frame as
// consumed once passed to SendBatch. A message in a pooled frame that is a
// Reclaimer is reclaimed with it.
type Batch struct {
	Msgs   []interface{}
	Stamps []sim.Time
	Ctxs   []trace.Ctx

	pooled bool
}

// GetBatch returns an empty (possibly recycled) batch frame to fill and
// pass to SendBatch.
func (c *NIC) GetBatch() *Batch { return c.net.batches.Get() }

// Reclaimer is a pooled message: the fabric calls Reclaim once the last
// copy of the message, or of the pooled batch frame carrying it, is
// delivered or lost, so the sender may reuse it from then on.
type Reclaimer interface{ Reclaim() }

func (n *Network) putBatch(b *Batch) {
	if b == nil || !b.pooled {
		return
	}
	for i, msg := range b.Msgs {
		if r, ok := msg.(Reclaimer); ok {
			r.Reclaim()
		}
		b.Msgs[i] = nil
	}
	b.Msgs = b.Msgs[:0]
	b.Stamps = b.Stamps[:0]
	b.Ctxs = b.Ctxs[:0]
	n.batches.Put(b)
}

// release reclaims a pooled batch or a Reclaimer sent bare, once its last
// copy was delivered or died.
func (n *Network) release(msg interface{}) {
	switch v := msg.(type) {
	case *Batch:
		n.putBatch(v)
	case Reclaimer:
		v.Reclaim()
	}
}

// Send delivers msg reliably to dst's message handler. Delivery is
// fire-and-forget at this layer: if dst is dead or partitioned the message
// vanishes and higher layers notice via leases/timeouts, as in the paper.
// The payload is shared by reference; senders must not mutate it.
func (c *NIC) Send(dst MachineID, msg interface{}) {
	*c.net.cMsgSend++
	c.transmit(dst, msg, false, 0)
}

// SendSized is Send with the message's modeled wire size charged against
// the NIC's bandwidth, so uncoalesced reliable sends occupy the wire like
// everything else (the registry wire-size model supplies bytes).
func (c *NIC) SendSized(dst MachineID, msg interface{}, bytes int) {
	*c.net.cMsgSend++
	*c.net.cMsgSendBytes += uint64(bytes)
	c.transmit(dst, msg, false, bytes)
}

// SendBatch delivers a coalesced frame of len(b.Msgs) messages as a single
// fabric send, occupying the NIC once and the wire for the frame's modeled
// size. bytes is the total modeled payload size; the serialization cost it
// implies is charged at the sending NIC. Pooled frames are reclaimed by
// the fabric after final delivery.
func (c *NIC) SendBatch(dst MachineID, b *Batch, bytes int) {
	*c.net.cMsgSend++
	*c.net.cMsgCoalesced += uint64(len(b.Msgs))
	*c.net.cMsgSendBytes += uint64(bytes)
	c.transmit(dst, b, false, bytes)
}

// SendUD delivers msg over the connectionless unreliable datagram
// transport used by the lease manager (§5.1). Datagrams may be dropped.
func (c *NIC) SendUD(dst MachineID, msg interface{}) {
	*c.net.cUDSend++
	c.transmit(dst, msg, true, 0)
}

// sendOp is the pooled state machine of one reliable send or datagram:
// src tx NIC → wire → dst rx NIC → handler upcall. Duplicate-delivery
// faults schedule two wire legs through the same op; the op (and a pooled
// batch or message riding on it) is reclaimed when the last copy delivers
// or dies.
type sendOp struct {
	net       *Network
	src       *NIC
	dst       MachineID
	msg       interface{}
	ud        bool
	bytes     int
	copies    int8
	remaining int8

	txFn, arriveFn, deliverFn func()
}

// done retires one delivery copy; the last one reclaims the op and any
// pooled batch or message (dispatched by now).
func (op *sendOp) done() {
	op.remaining--
	if op.remaining > 0 {
		return
	}
	op.net.release(op.msg)
	op.src = nil
	op.msg = nil
	op.net.sends.Put(op)
}

func (op *sendOp) txDone() {
	net, c := op.net, op.src
	for i := int8(0); i < op.copies; i++ {
		net.Eng.After(net.hop()+net.legDelay(c.ID, op.dst), op.arriveFn)
	}
}

func (op *sendOp) arrive() {
	net, c := op.net, op.src
	r := net.nic(op.dst)
	if r == nil || !r.powered || !net.legUp(c.ID, op.dst) {
		*net.cMsgLost++
		op.done()
		return
	}
	r.rx.Do(net.nicOpTime(op.dst), op.deliverFn)
}

func (op *sendOp) deliver() {
	r := op.net.nic(op.dst)
	if r == nil || !r.powered {
		op.done()
		return
	}
	h := r.msgHandler
	if op.ud {
		h = r.udHandler
	}
	if h != nil {
		h(op.src.ID, op.msg)
	}
	op.done()
}

func (c *NIC) transmit(dst MachineID, msg interface{}, ud bool, bytes int) {
	net := c.net
	if !c.powered {
		net.release(msg)
		return // dead initiators send nothing
	}
	if ud && net.Eng.Rand().Bool(net.udLossProb(c.ID, dst)) {
		*net.cUDDropped++
		net.release(msg)
		return
	}
	if dst == c.ID {
		// Loopback: skip the NIC and wire (link faults model the fabric, so
		// they never apply to a machine talking to itself).
		op := net.sends.Get()
		op.src, op.dst, op.msg, op.ud, op.bytes = c, dst, msg, ud, bytes
		op.copies, op.remaining = 1, 1
		net.Eng.After(net.Opts.LocalOpTime, op.deliverFn)
		return
	}
	// Reliable-send drop/dup faults model RC retry exhaustion and ack-loss
	// retransmission at the message layer. They deliberately do NOT apply
	// to one-sided verbs: RC ordering cannot lose one write and deliver the
	// next, so partial verb loss is modelled as a Cut episode instead.
	copies := int8(1)
	if !ud {
		if net.dropSend(c.ID, dst) {
			*net.cFaultDrop++
			net.release(msg)
			return
		}
		if net.dupSend(c.ID, dst) {
			*net.cFaultDup++
			copies = 2
		}
	}
	op := net.sends.Get()
	op.src, op.dst, op.msg, op.ud, op.bytes = c, dst, msg, ud, bytes
	op.copies, op.remaining = copies, copies
	c.tx.Do(net.nicOpTime(c.ID)+net.xferTime(c.ID, bytes), op.txFn)
}
