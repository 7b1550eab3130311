package core

import (
	"farm/internal/fabric"
	"farm/internal/pool"
	"farm/internal/proto"
	"farm/internal/sim"
)

// leaseManager implements §5.1: every machine holds a lease at the CM and
// the CM holds a lease at every machine, granted by a 3-way handshake
// (request → grant+request → grant) and renewed every lease/5. Expiry of
// any lease triggers failure recovery. "Significantly larger clusters may
// require a two-level hierarchy": with Options.LeaseGroupSize > 0 the
// machines are grouped by id, and a group's leader grants its members'
// leases while it holds its own at the CM. Flat leases are the one-group
// case, led by the CM; one driver serves both, in terms of who grants whose
// lease (grantorOf).
//
// The four implementation variants of Figure 16 differ in how lease
// messages are transported and scheduled:
//
//	RPC            reliable transport, shared queue pairs, shared worker
//	               threads — lease traffic queues behind everything else.
//	UD             dedicated unreliable-datagram queue pair, but handling
//	               still dispatched to the shared worker pool.
//	UD+thread      dedicated lease-manager thread at normal priority —
//	               subject to occasional OS-level preemption.
//	UD+thread+pri  dedicated high-priority interrupt-driven thread with
//	               pinned memory: only a few microseconds of latency, rare
//	               sub-millisecond preemption.
//
// Renewal timers are quantized to the system-timer resolution (0.5 ms),
// which is what limits the shortest usable lease in the paper (§6.5).
type leaseManager struct {
	m        *Machine
	variant  LeaseVariant
	duration sim.Time

	// Dedicated thread for the UD+thread variants.
	thread *sim.Thread

	// stallUntil models head-of-line stalls of the shared transport: the
	// RPC variant's shared reliable queue pairs back up behind bulk
	// traffic for long stretches; the UD variant's shared worker thread
	// stalls when its event loop is stuck in application batches. During
	// a stall every lease message through that path waits.
	stallUntil sim.Time

	// renewed is when this machine's own lease, at its grantor, was last
	// renewed: the send time of the request the latest grant+request
	// answered, never that grant's arrival, so the grantor's granted
	// bounds it.
	renewed sim.Time
	// grants holds the renewals received for the leases this machine
	// grants, by machine id: when its grant completing our grant+request
	// last arrived.
	grants []sim.Time
	// granted holds the grants sent, by machine id: when this machine last
	// sent it a grant+request. Its holder's lease lapses by granted +
	// duration, whatever the datagram's delay (commitWait).
	granted []sim.Time

	stopped bool
	// started is set once renewal and expiry checking are armed; start is
	// called at every NEW-CONFIG-COMMIT and does nothing after the first.
	started bool

	// Lease traffic allocates nothing: tickFn is tick, bound once; the
	// messages this machine sends come from reqMsgs and grantMsgs, and the
	// fabric returns each once its last copy was delivered or lost; sends
	// and recvs hold the carriers of messages on their way to the wire
	// and, copied at the upcall, to their handler.
	tickFn    func()
	reqMsgs   pool.Free[proto.LeaseRequest]
	grantMsgs pool.Free[proto.LeaseGrant]
	sends     pool.Free[leaseSend]
	recvs     pool.Free[leaseRecv]
}

// timerResolution is the system timer granularity (0.5 ms in §6.5).
const timerResolution = 500 * sim.Microsecond

// noLease is a machine's entry in grants or granted while none is
// recorded: time 0 is a real time.
const noLease sim.Time = -1

// leaseSlot returns machine id's entry in *t, growing the table to hold it.
func leaseSlot(t *[]sim.Time, id int) *sim.Time {
	for len(*t) <= id {
		*t = append(*t, noLease)
	}
	return &(*t)[id]
}

func newLeaseManager(m *Machine) *leaseManager {
	lm := &leaseManager{
		m:        m,
		variant:  m.c.Opts.LeaseVariant,
		duration: m.c.Opts.LeaseDuration,
	}
	lm.thread = sim.NewThread(m.c.Eng, "lease")
	lm.tickFn = lm.tick
	checked := m.c.Hist != nil
	lm.reqMsgs.Checked, lm.grantMsgs.Checked = checked, checked
	lm.sends = pool.Free[leaseSend]{Checked: checked, New: func() *leaseSend {
		s := &leaseSend{lm: lm}
		s.queueFn, s.sendFn = s.queue, s.send
		return s
	}}
	lm.recvs = pool.Free[leaseRecv]{Checked: checked, New: func() *leaseRecv {
		r := &leaseRecv{lm: lm}
		r.queueFn, r.processFn = r.queue, r.process
		return r
	}}
	switch lm.variant {
	case LeaseUDThread:
		// Normal priority: occasionally preempted for many milliseconds by
		// background processes sharing the machine.
		lm.thread.SetJitter(func(r *sim.Rand) sim.Time {
			if r.Bool(0.002) {
				return r.Between(2*sim.Millisecond, 60*sim.Millisecond)
			}
			return r.Duration(20 * sim.Microsecond)
		})
	case LeaseUDThreadPri:
		// Interrupt driven at highest user-space priority: a few
		// microseconds of interrupt latency, very rare short preemption.
		lm.thread.SetJitter(func(r *sim.Rand) sim.Time {
			if r.Bool(0.00002) {
				return r.Between(200*sim.Microsecond, 1200*sim.Microsecond)
			}
			return 3*sim.Microsecond + r.Duration(4*sim.Microsecond)
		})
	}
	m.nic.SetUDHandler(lm.onUD)
	switch lm.variant {
	case LeaseRPC:
		// Shared QP stalls: frequent and long (§6.5: "With shared queue
		// pairs, even 100 ms leases expire very often").
		lm.scheduleStalls(2*sim.Second, 50*sim.Millisecond, 600*sim.Millisecond)
	case LeaseUD:
		// Shared-thread stalls: shorter ("reduced ... but not eliminated
		// due to contention for the CPU").
		lm.scheduleStalls(1500*sim.Millisecond, 5*sim.Millisecond, 120*sim.Millisecond)
	}
	return lm
}

// scheduleStalls arms a renewal-path stall process with exponential
// inter-arrivals and uniform durations.
func (lm *leaseManager) scheduleStalls(mean, durLo, durHi sim.Time) {
	eng := lm.m.c.Eng
	gap := sim.Time(float64(mean) * eng.Rand().ExpFloat64())
	eng.After(gap, func() {
		if lm.stopped || !lm.m.alive {
			return
		}
		until := eng.Now() + eng.Rand().Between(durLo, durHi)
		if until > lm.stallUntil {
			lm.stallUntil = until
		}
		lm.scheduleStalls(mean, durLo, durHi)
	})
}

// stallDelay returns how long the shared path is currently blocked.
func (lm *leaseManager) stallDelay() sim.Time {
	if d := lm.stallUntil - lm.m.c.Eng.Now(); d > 0 {
		return d
	}
	return 0
}

// renewInterval is lease/5 rounded up to the timer resolution.
func (lm *leaseManager) renewInterval() sim.Time {
	iv := lm.duration / 5
	if rem := iv % timerResolution; rem != 0 {
		iv += timerResolution - rem
	}
	return max(iv, timerResolution)
}

// start arms renewal and expiry checking.
func (lm *leaseManager) start() {
	if lm.started {
		return
	}
	lm.reset()
	lm.tick()
}

func (lm *leaseManager) stop() { lm.stopped = true }

// leaderOf returns the leader of id's lease group: the CM for the machines
// in its own group, which with LeaseGroupSize 0 is every machine, and for
// any other group its first member in configuration order (deterministic
// across the cluster).
func (lm *leaseManager) leaderOf(id int) int {
	cm, size := int(lm.m.config.CM), lm.m.c.Opts.LeaseGroupSize
	if size == 0 || id/size == cm/size {
		return cm
	}
	for _, mem := range lm.m.config.Machines {
		if int(mem)/size == id/size {
			return int(mem)
		}
	}
	return cm
}

// grantorOf returns the machine that grants id's lease: its group's
// leader, the CM for a leader, and -1 for the CM, which renews with no one.
func (lm *leaseManager) grantorOf(id int) int {
	if l := lm.leaderOf(id); l != id {
		return l
	}
	if id == int(lm.m.config.CM) {
		return -1
	}
	return int(lm.m.config.CM)
}

// grantor returns the machine this one renews its own lease with.
func (lm *leaseManager) grantor() int { return lm.grantorOf(lm.m.ID) }

// leads reports whether this machine may grant leases: only a group's
// leader does, and under flat leases only the CM.
func (lm *leaseManager) leads() bool { return lm.leaderOf(lm.m.ID) == lm.m.ID }

// watches reports whether this machine grants id's lease.
func (lm *leaseManager) watches(id int) bool { return lm.grantorOf(id) == lm.m.ID }

// tick runs every renewal interval: check the leases this machine grants,
// then renew its own lease with its grantor and check that.
func (lm *leaseManager) tick() {
	if lm.stopped || !lm.m.alive {
		return
	}
	now := lm.m.c.Eng.Now()
	if lm.leads() {
		for _, mem := range lm.m.config.Machines {
			id := int(mem)
			if !lm.watches(id) {
				continue
			}
			g := leaseSlot(&lm.grants, id)
			if *g == noLease {
				*g = now
			}
			if now-*g > lm.duration {
				lm.expired(id)
			}
		}
	}
	if g := lm.grantor(); g >= 0 {
		lm.transmit(g, proto.PooledLeaseRequest(&lm.reqMsgs, lm.m.config.ID, false, int64(now)))
		if now-lm.renewed > lm.duration {
			lm.expired(g)
		}
	}
	lm.m.maybeWithdrawSuspicion()
	lm.m.flushFencedReports()
	lm.m.c.Eng.After(lm.renewInterval(), lm.tickFn)
}

// fresh reports whether every lease this machine grants or holds — the
// ones whose expiry triggers suspicion — is currently unexpired. On a
// machine that grants none it reads one timestamp.
func (lm *leaseManager) fresh() bool {
	now := lm.m.c.Eng.Now()
	if lm.leads() {
		for _, mem := range lm.m.config.Machines {
			if id := int(mem); lm.watches(id) {
				if g := *leaseSlot(&lm.grants, id); g != noLease && now-g > lm.duration {
					return false
				}
			}
		}
	}
	return lm.grantor() < 0 || now-lm.renewed <= lm.duration
}

// suspectReport carries a suspicion to the CM: a lease a group leader
// grants, or holds from its own leader, lapsed, or a log write to a member
// failed (reportWriteFailure).
type suspectReport struct {
	Config  uint64
	Suspect int
}

// expired handles a lease expiry: count it, and unless the cluster runs
// with recovery disabled (the Figure 16 methodology), act on it. The CM
// suspects the machine, a machine whose CM lease lapsed suspects the CM
// (§5.2 step 1), and any other machine reports to the CM, which probes
// before it evicts anyone.
func (lm *leaseManager) expired(id int) {
	m := lm.m
	m.c.Counters.Inc("lease_expiry", 1)
	if m.trb != nil {
		m.trb.Event("fault", "lease-expiry", m.c.Eng.Now(), 0, 0, int64(id))
	}
	switch {
	case m.c.DisableRecovery:
	case m.IsCM():
		m.suspect(id)
		return
	case id == int(m.config.CM):
		m.suspectCM()
		return
	default:
		m.send(int(m.config.CM), &suspectReport{Config: m.config.ID, Suspect: id})
	}
	// Restart the lapsed lease's clock, so each expiry is counted and
	// reported once.
	if now := m.c.Eng.Now(); id == lm.grantor() {
		lm.renewed = now
	} else {
		*leaseSlot(&lm.grants, id) = now
	}
}

// transmit sends a lease message using the variant's transport and charges
// the variant's send-side scheduling.
func (lm *leaseManager) transmit(dst int, msg fabric.Reclaimer) {
	m := lm.m
	s := lm.sends.Get()
	s.dst, s.msg = dst, msg
	switch lm.variant {
	case LeaseRPC:
		// Shared queue pairs and worker threads: wait out any QP stall,
		// then queue behind normal work.
		m.c.Eng.After(lm.stallDelay()+m.c.Eng.Rand().Duration(200*sim.Microsecond), s.queueFn)
	case LeaseUD:
		// Own queue pair, shared thread: wait out event-loop stalls, then
		// the send is prioritized within the thread.
		m.c.Eng.After(lm.stallDelay()+m.c.Eng.Rand().Duration(50*sim.Microsecond), s.queueFn)
	default:
		lm.thread.Do(sim.Microsecond, s.sendFn)
	}
}

// leaseSend is one lease message on its way to the wire, pooled with its
// continuations bound once.
type leaseSend struct {
	lm              *leaseManager
	dst             int
	msg             fabric.Reclaimer
	queueFn, sendFn func()
}

// queue hands the send to the shared worker threads the RPC and UD
// variants send from.
func (s *leaseSend) queue() {
	m := s.lm.m
	if s.lm.variant == LeaseRPC {
		m.pool.Dispatch(cpuMsg, s.sendFn)
	} else {
		m.pool.ByIndex(0).DoPriority(cpuMsg, s.sendFn)
	}
}

// send puts the message on the wire, or back in its pool if the machine
// died; the carrier goes back to its pool first.
func (s *leaseSend) send() {
	lm, dst, msg := s.lm, fabric.MachineID(s.dst), s.msg
	s.msg = nil
	lm.sends.Put(s)
	m := lm.m
	switch {
	case !m.alive:
		msg.Reclaim()
	case lm.variant == LeaseRPC:
		// Lease RPCs share the reliable queue pairs, so they occupy wire
		// bandwidth like any other reliable send.
		m.nic.SendSized(dst, msg, proto.DefaultMsgSize)
	default:
		m.nic.SendUD(dst, msg)
	}
}

// onUD is the datagram upcall: route to the variant's processing context.
func (lm *leaseManager) onUD(src fabric.MachineID, msg interface{}) {
	if !lm.m.alive || lm.stopped {
		return
	}
	r := lm.received(int(src), msg)
	switch lm.variant {
	case LeaseUD:
		// Same event-loop stall exposure on the receive side.
		lm.m.c.Eng.After(lm.stallDelay(), r.queueFn)
	default:
		lm.thread.Do(sim.Microsecond, r.processFn)
	}
}

// received copies a delivered lease message, whose sender reclaims it once
// this upcall returns, into a pooled carrier that takes it to its handler.
func (lm *leaseManager) received(src int, msg interface{}) *leaseRecv {
	r := lm.recvs.Get()
	r.src = src
	switch v := msg.(type) {
	case *proto.LeaseRequest:
		r.isReq, r.req = true, proto.LeaseRequest{Config: v.Config, Grant: v.Grant, Sent: v.Sent}
	case *proto.LeaseGrant:
		r.isReq, r.grant = false, proto.LeaseGrant{Config: v.Config}
	}
	return r
}

// leaseRecv is one received lease message on its way to its handler,
// pooled with its continuations bound once.
type leaseRecv struct {
	lm                 *leaseManager
	src                int
	isReq              bool
	req                proto.LeaseRequest
	grant              proto.LeaseGrant
	queueFn, processFn func()
}

// queue hands the message to the UD variant's shared worker thread.
func (r *leaseRecv) queue() { r.lm.m.pool.ByIndex(0).DoPriority(cpuMsg, r.processFn) }

// process runs the message's handler, once the carrier is back in its pool.
func (r *leaseRecv) process() {
	lm, src, isReq, req, grant := r.lm, r.src, r.isReq, r.req, r.grant
	lm.recvs.Put(r)
	if !lm.m.alive {
		return
	}
	if isReq {
		lm.onRequest(src, &req)
	} else {
		lm.onGrant(src, &grant)
	}
}

// onRequest handles a lease request: a machine this one watches gets the
// combined grant+request of the 3-way handshake, with its send time echoed;
// a grant-tagged request from this machine's grantor renews its own lease
// and is answered with the final grant.
func (lm *leaseManager) onRequest(src int, req *proto.LeaseRequest) {
	if req.Config < lm.m.config.ID {
		return
	}
	if !req.Grant && lm.watches(src) {
		*leaseSlot(&lm.granted, src) = lm.m.c.Eng.Now()
		lm.transmit(src, proto.PooledLeaseRequest(&lm.reqMsgs, lm.m.config.ID, true, req.Sent))
		return
	}
	if req.Grant && src == lm.grantor() {
		lm.renewed = max(lm.renewed, sim.Time(req.Sent))
		lm.transmit(src, proto.PooledLeaseGrant(&lm.grantMsgs, lm.m.config.ID))
	}
}

// commitWait is how long the CM holds NEW-CONFIG-COMMIT after the last
// NEW-CONFIG-ACK (§5.2 step 7): until the leases it granted to the removed
// machines have lapsed. A holder times its lease from a request that left
// before the grant did, so it lapses by granted + duration, and a crash,
// suspected only after that, needs no wait at all. Where the CM cannot
// bound a removed machine's lease it waits a full lease duration: the
// round is unbounded (another CM or a power restore started the leases),
// or this CM has no record of a grant to it, as for a member whose lease
// its group's leader granted. Leadership only passes on to a later member
// and a joining machine takes a new id, so the CM holds no stale record
// for a machine a leader now grants.
func (lm *leaseManager) commitWait(removed []int, unbounded bool) sim.Time {
	var wait sim.Time
	for _, r := range removed {
		g := *leaseSlot(&lm.granted, r)
		unbounded = unbounded || g == noLease
		wait = max(wait, g+lm.duration+1-lm.m.c.Eng.Now())
	}
	if unbounded {
		return lm.duration
	}
	return wait
}

// onGrant completes the handshake at the grantor.
func (lm *leaseManager) onGrant(src int, g *proto.LeaseGrant) {
	if g.Config < lm.m.config.ID || !lm.watches(src) {
		return
	}
	*leaseSlot(&lm.grants, src) = lm.m.c.Eng.Now()
}

// reset restarts lease state for the current configuration: NEW-CONFIG
// acts as a lease request from a (possibly new) CM, NEW-CONFIG-ACK as a
// grant+request, and NEW-CONFIG-COMMIT as a grant (§5.2 steps 5–7).
func (lm *leaseManager) reset() {
	now := lm.m.c.Eng.Now()
	lm.renewed = now
	lm.grants, lm.granted = lm.grants[:0], lm.granted[:0]
	for _, mem := range lm.m.config.Machines {
		if lm.watches(int(mem)) {
			*leaseSlot(&lm.grants, int(mem)) = now
		}
	}
	lm.started = true
}
