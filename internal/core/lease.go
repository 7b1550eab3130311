package core

import (
	"farm/internal/fabric"
	"farm/internal/proto"
	"farm/internal/sim"
)

// leaseManager implements §5.1: every machine holds a lease at the CM and
// the CM holds a lease at every machine, granted by a 3-way handshake
// (request → grant+request → grant) and renewed every lease/5. Expiry of
// any lease triggers failure recovery.
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

	// lastFromCM is when the CM's lease to this machine was last renewed:
	// the send time of the request the latest grant+request answered, never
	// that grant's arrival, so the CM's granted bounds it.
	lastFromCM sim.Time
	// grants (CM, or a group leader) holds the renewals received: machine →
	// when its grant completing our grant+request last arrived.
	grants map[int]sim.Time
	// granted (CM only) holds the grants sent: machine → when this CM last
	// sent it a grant+request. Its holder's lease lapses by granted +
	// duration, whatever the datagram's delay (commitWait).
	granted map[int]sim.Time

	stopped bool
	// started is set once renewal and expiry checking are armed; start is
	// called at every NEW-CONFIG-COMMIT and does nothing after the first.
	started bool
}

// timerResolution is the system timer granularity (0.5 ms in §6.5).
const timerResolution = 500 * sim.Microsecond

func newLeaseManager(m *Machine) *leaseManager {
	lm := &leaseManager{
		m:        m,
		variant:  m.c.Opts.LeaseVariant,
		duration: m.c.Opts.LeaseDuration,
		grants:   make(map[int]sim.Time),
		granted:  make(map[int]sim.Time),
	}
	lm.thread = sim.NewThread(m.c.Eng, "lease")
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
	lm.started = true
	now := lm.m.c.Eng.Now()
	lm.lastFromCM = now
	if lm.m.IsCM() {
		for _, mem := range lm.m.config.Machines {
			if int(mem) != lm.m.ID {
				lm.grants[int(mem)] = now
			}
		}
	}
	if lm.hierarchical() {
		lm.hierTick()
	} else {
		lm.tick()
	}
}

func (lm *leaseManager) stop() { lm.stopped = true }

// tick runs every renewal interval: send renewals and check expiries.
func (lm *leaseManager) tick() {
	if lm.stopped || !lm.m.alive {
		return
	}
	now := lm.m.c.Eng.Now()
	if lm.m.IsCM() {
		for _, mem := range lm.m.config.Machines {
			id := int(mem)
			if id == lm.m.ID {
				continue
			}
			if _, ok := lm.grants[id]; !ok {
				lm.grants[id] = now
			}
			if now-lm.grants[id] > lm.duration {
				lm.expired(id)
			}
		}
	} else {
		// Renew our lease at the CM.
		lm.transmit(int(lm.m.config.CM), &proto.LeaseRequest{Config: lm.m.config.ID, Sent: int64(now)})
		if now-lm.lastFromCM > lm.duration {
			lm.expired(int(lm.m.config.CM))
		}
	}
	lm.m.maybeWithdrawSuspicion()
	lm.m.flushFencedReports()
	lm.m.c.Eng.After(lm.renewInterval(), func() { lm.tick() })
}

// fresh reports whether every lease this machine watches — the ones whose
// expiry triggers suspicion — is currently unexpired.
func (lm *leaseManager) fresh() bool {
	now := lm.m.c.Eng.Now()
	if lm.hierarchical() {
		_, track := lm.hierarchyPeers()
		for _, id := range track {
			if g, ok := lm.grants[id]; ok && now-g > lm.duration {
				return false
			}
		}
		if !lm.m.IsCM() && now-lm.lastFromCM > lm.duration {
			return false
		}
		return true
	}
	if lm.m.IsCM() {
		for _, mem := range lm.m.config.Machines {
			id := int(mem)
			if id == lm.m.ID {
				continue
			}
			if g, ok := lm.grants[id]; ok && now-g > lm.duration {
				return false
			}
		}
		return true
	}
	return now-lm.lastFromCM <= lm.duration
}

// expired handles a lease expiry: count it, and unless the cluster runs
// with recovery disabled (the Figure 16 methodology), start recovery.
func (lm *leaseManager) expired(machine int) {
	lm.m.c.Counters.Inc("lease_expiry", 1)
	if lm.m.trb != nil {
		lm.m.trb.Event("fault", "lease-expiry", lm.m.c.Eng.Now(), 0, 0, int64(machine))
	}
	if lm.m.c.DisableRecovery {
		// Reset so each expiry is counted once, as in §6.5.
		now := lm.m.c.Eng.Now()
		if lm.m.IsCM() {
			lm.grants[machine] = now
		} else {
			lm.lastFromCM = now
		}
		return
	}
	if lm.m.IsCM() {
		lm.m.suspect(machine)
	} else {
		lm.m.suspectCM()
	}
}

// transmit sends a lease message using the variant's transport and charges
// the variant's send-side scheduling.
func (lm *leaseManager) transmit(dst int, msg interface{}) {
	m := lm.m
	switch lm.variant {
	case LeaseRPC:
		// Shared queue pairs and worker threads: wait out any QP stall,
		// then queue behind normal work.
		m.c.Eng.After(lm.stallDelay()+m.c.Eng.Rand().Duration(200*sim.Microsecond), func() {
			m.pool.Dispatch(cpuMsg, func() {
				if m.alive {
					// Lease RPCs share the reliable queue pairs, so they
					// occupy wire bandwidth like any other reliable send.
					m.nic.SendSized(fabric.MachineID(dst), msg, proto.DefaultMsgSize)
				}
			})
		})
	case LeaseUD:
		// Own queue pair, shared thread: wait out event-loop stalls, then
		// the send is prioritized within the thread.
		m.c.Eng.After(lm.stallDelay()+m.c.Eng.Rand().Duration(50*sim.Microsecond), func() {
			m.pool.ByIndex(0).DoPriority(cpuMsg, func() {
				if m.alive {
					m.nic.SendUD(fabric.MachineID(dst), msg)
				}
			})
		})
	default:
		lm.thread.Do(sim.Microsecond, func() {
			if m.alive {
				m.nic.SendUD(fabric.MachineID(dst), msg)
			}
		})
	}
}

// onUD is the datagram upcall: route to the variant's processing context.
func (lm *leaseManager) onUD(src fabric.MachineID, msg interface{}) {
	if !lm.m.alive || lm.stopped {
		return
	}
	s := int(src)
	process := func() {
		if !lm.m.alive {
			return
		}
		switch v := msg.(type) {
		case *proto.LeaseRequest:
			lm.onRequest(s, v)
		case *proto.LeaseGrant:
			lm.onGrant(s, v)
		}
	}
	switch lm.variant {
	case LeaseUD:
		// Same event-loop stall exposure on the receive side.
		lm.m.c.Eng.After(lm.stallDelay(), func() {
			lm.m.pool.ByIndex(0).DoPriority(cpuMsg, process)
		})
	default:
		lm.thread.Do(sim.Microsecond, process)
	}
}

// onRequest handles a lease request: at the CM the reply is the combined
// grant+request of the 3-way handshake; at a member a grant-tagged request
// renews the CM's lease and is answered with the final grant.
func (lm *leaseManager) onRequest(src int, req *proto.LeaseRequest) {
	if lm.hierarchical() {
		lm.onHierRequest(src, req)
		return
	}
	if req.Config < lm.m.config.ID {
		return
	}
	if lm.m.IsCM() && !req.Grant {
		lm.granted[src] = lm.m.c.Eng.Now()
		lm.transmit(src, &proto.LeaseRequest{Config: lm.m.config.ID, Grant: true, Sent: req.Sent})
		return
	}
	if req.Grant && src == int(lm.m.config.CM) {
		lm.lastFromCM = max(lm.lastFromCM, sim.Time(req.Sent))
		lm.transmit(src, &proto.LeaseGrant{Config: lm.m.config.ID})
	}
}

// commitWait is how long the CM holds NEW-CONFIG-COMMIT after the last
// NEW-CONFIG-ACK (§5.2 step 7): until the leases it granted to the removed
// machines have lapsed. A holder times its lease from a request that left
// before the grant did, so it lapses by granted + duration, and a crash,
// suspected only after that, needs no wait at all. Where the CM cannot
// bound a removed machine's lease it waits a full lease duration: the
// round is unbounded (another CM or a power restore started the leases), a
// group leader granted it (hierarchical leases), or this CM has no record
// of a grant to it.
func (lm *leaseManager) commitWait(removed []int, unbounded bool) sim.Time {
	var wait sim.Time
	for _, r := range removed {
		g, ok := lm.granted[r]
		unbounded = unbounded || !ok
		wait = max(wait, g+lm.duration+1-lm.m.c.Eng.Now())
	}
	if unbounded || lm.hierarchical() {
		return lm.duration
	}
	return wait
}

// onGrant completes the handshake at the grantor (CM, or a group leader
// in hierarchical mode).
func (lm *leaseManager) onGrant(src int, g *proto.LeaseGrant) {
	if g.Config < lm.m.config.ID {
		return
	}
	if !lm.m.IsCM() && !(lm.hierarchical() && lm.isLeader()) {
		return
	}
	lm.grants[src] = lm.m.c.Eng.Now()
}

// resetFor adjusts lease state after a configuration change: NEW-CONFIG
// acts as a lease request from a (possibly new) CM, NEW-CONFIG-ACK as a
// grant+request, and NEW-CONFIG-COMMIT as a grant (§5.2 steps 5–7).
func (lm *leaseManager) resetFor(cfg *proto.Config) {
	now := lm.m.c.Eng.Now()
	lm.lastFromCM = now
	lm.grants = make(map[int]sim.Time)
	clear(lm.granted)
	if int(cfg.CM) == lm.m.ID {
		for _, mem := range cfg.Machines {
			if int(mem) != lm.m.ID {
				lm.grants[int(mem)] = now
			}
		}
	}
	lm.started = true
}

// --- Two-level lease hierarchy (§5.1) ---
//
// "Significantly larger clusters may require a two-level hierarchy, which
// in the worst case would double failure detection time." With
// Options.LeaseGroupSize > 0, members exchange leases with their group's
// leader instead of the CM; leaders exchange leases with the CM. A leader
// that loses a member's lease reports the suspicion to the CM, which runs
// the ordinary reconfiguration.

// suspectReport carries a hierarchical suspicion to the CM.
type suspectReport struct {
	Config  uint64
	Suspect int
}

// hierarchical reports whether the two-level mode is on.
func (lm *leaseManager) hierarchical() bool { return lm.m.c.Opts.LeaseGroupSize > 0 }

// groupOf returns the index of a machine's lease group.
func (lm *leaseManager) groupOf(id int) int { return id / lm.m.c.Opts.LeaseGroupSize }

// leaderOf returns the lease leader for a machine: the first member of its
// group in configuration order (deterministic across the cluster).
func (lm *leaseManager) leaderOf(id int) int {
	g := lm.groupOf(id)
	for _, mem := range lm.m.config.Machines {
		if lm.groupOf(int(mem)) == g {
			return int(mem)
		}
	}
	return int(lm.m.config.CM)
}

// isLeader reports whether this machine leads its group.
func (lm *leaseManager) isLeader() bool { return lm.leaderOf(lm.m.ID) == lm.m.ID }

// hierarchyPeers returns (whom I renew with, whom I track leases for).
func (lm *leaseManager) hierarchyPeers() (renewWith []int, track []int) {
	m := lm.m
	if m.IsCM() {
		// The CM tracks every group leader (and leads its own group).
		for _, mem := range m.config.Machines {
			id := int(mem)
			if id != m.ID && (lm.leaderOf(id) == id || lm.groupOf(id) == lm.groupOf(m.ID)) {
				track = append(track, id)
			}
		}
		return nil, track
	}
	if lm.isLeader() {
		renewWith = []int{int(m.config.CM)}
		for _, mem := range m.config.Machines {
			id := int(mem)
			if id != m.ID && lm.groupOf(id) == lm.groupOf(m.ID) {
				track = append(track, id)
			}
		}
		return renewWith, track
	}
	return []int{lm.leaderOf(m.ID)}, nil
}

// hierTick is the hierarchical replacement for tick().
func (lm *leaseManager) hierTick() {
	if lm.stopped || !lm.m.alive {
		return
	}
	now := lm.m.c.Eng.Now()
	renewWith, track := lm.hierarchyPeers()
	for _, dst := range renewWith {
		lm.transmit(dst, &proto.LeaseRequest{Config: lm.m.config.ID})
	}
	for _, id := range track {
		if _, ok := lm.grants[id]; !ok {
			lm.grants[id] = now
		}
		if now-lm.grants[id] > lm.duration {
			lm.hierExpired(id)
		}
	}
	if !lm.m.IsCM() && len(renewWith) > 0 {
		if now-lm.lastFromCM > lm.duration {
			lm.hierExpired(renewWith[0])
		}
	}
	lm.m.maybeWithdrawSuspicion()
	lm.m.flushFencedReports()
	lm.m.c.Eng.After(lm.renewInterval(), func() { lm.hierTick() })
}

// hierExpired routes a hierarchical expiry: the CM reconfigures directly;
// leaders and members report suspicions upward.
func (lm *leaseManager) hierExpired(id int) {
	m := lm.m
	m.c.Counters.Inc("lease_expiry", 1)
	if m.trb != nil {
		m.trb.Event("fault", "lease-expiry", m.c.Eng.Now(), 0, 0, int64(id))
	}
	if m.c.DisableRecovery {
		now := m.c.Eng.Now()
		lm.grants[id] = now
		if !m.IsCM() {
			lm.lastFromCM = now
		}
		return
	}
	switch {
	case m.IsCM():
		m.suspect(id)
	case id == int(m.config.CM) && lm.isLeader():
		m.suspectCM()
	default:
		// Report to the CM; if the CM itself is unreachable the leader
		// lease path will notice separately.
		m.send(int(m.config.CM), &suspectReport{Config: m.config.ID, Suspect: id})
		lm.grants[id] = m.c.Eng.Now() // report once per expiry
	}
}

// onHierRequest serves hierarchical lease requests at leaders and the CM:
// the 3-way handshake is the same, only the grantor differs.
func (lm *leaseManager) onHierRequest(src int, req *proto.LeaseRequest) {
	if req.Config < lm.m.config.ID {
		return
	}
	if !req.Grant {
		lm.transmit(src, &proto.LeaseRequest{Config: lm.m.config.ID, Grant: true})
		return
	}
	// Grant+request from our grantor (leader, or CM for leaders).
	lm.lastFromCM = lm.m.c.Eng.Now()
	lm.transmit(src, &proto.LeaseGrant{Config: lm.m.config.ID})
}
