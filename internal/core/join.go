package core

import "farm/internal/proto"

// This file implements cluster growth: §3's configurations "change over
// time as machines fail or new machines are added". A joining machine
// registers with the CM, which runs the standard reconfiguration protocol
// with the member added; ring buffers toward and from the newcomer are
// established lazily, and the placement logic starts assigning it region
// replicas on the next allocations and remaps.

// joinReq is the newcomer's registration message to the CM.
type joinReq struct {
	ID     int
	Domain int
}

// Join adds a fresh machine to the cluster: it is wired to the fabric,
// registers with the CM, and becomes a member through a reconfiguration.
// The returned machine is usable once its ConfigID catches up (drive the
// simulation and check, or use WaitFor in the public API).
func (c *Cluster) Join() *Machine {
	id := len(c.Machines)
	m := c.newMachine(id)
	// The newcomer starts outside any configuration: an empty config with
	// only the CM contact carried over from deployment configuration.
	m.config = proto.Config{ID: 0, CM: c.Machines[0].config.CM}
	c.Machines = append(c.Machines, m)

	// A peer entry, and the log pair in it, for every machine so far and
	// itself; every earlier machine gets the newcomer's.
	m.initLogs()
	for _, old := range c.Machines[:id] {
		old.addPeer()
	}
	m.lease = newLeaseManager(m)
	m.startTxStallSweep()

	domain := id
	if c.Opts.FailureDomains > 0 {
		domain = id % c.Opts.FailureDomains
	}
	// Register with the CM; the CM adds us via reconfiguration.
	cm := int(m.config.CM)
	m.c.Eng.After(0, func() {
		m.send(cm, &joinReq{ID: id, Domain: domain})
	})
	c.trace("join-requested", id, 0)
	return m
}

// onJoinReq runs at the CM: admit the machine through the reconfiguration
// protocol (same ZK CAS path as failures; §5.2).
func (m *Machine) onJoinReq(req *joinReq) {
	if !m.IsCM() || m.reconfiguring {
		// Not CM (stale contact) or busy: the joiner's lease protocol will
		// retry registration via timeout at the caller level; here we just
		// drop, and the test harness re-drives Join when needed.
		if !m.IsCM() {
			// Redirect to the current CM.
			m.send(int(m.config.CM), req)
		}
		return
	}
	if m.config.Member(uint16(req.ID)) {
		return
	}
	m.reconfiguring = true
	m.c.Counters.Inc("joins", 1)

	newCfg := proto.Config{
		ID:       m.config.ID + 1,
		Machines: append(append([]uint16(nil), m.config.Machines...), uint16(req.ID)),
		Domains:  make(map[uint16]int),
		CM:       m.config.CM,
	}
	for k, v := range m.config.Domains {
		newCfg.Domains[k] = v
	}
	newCfg.Domains[uint16(req.ID)] = req.Domain

	m.c.ZK.CAS(m.config.ID, &newCfg, func(ok bool, _ uint64, _ interface{}, err error) {
		if !m.alive {
			return
		}
		m.reconfiguring = false
		if err != nil || !ok {
			return
		}
		m.c.trace("join-admitted", req.ID, int(newCfg.ID))
		// No regions changed: NEW-CONFIG with the enlarged membership.
		m.becomeCM(&newCfg, map[int]bool{}, false)
	})
}
