package core

import (
	"math"

	"farm/internal/fabric"
	"farm/internal/proto"
	"farm/internal/sim"
	"farm/internal/trace"
)

// This file implements the reconfiguration protocol of §5.2 / Figure 5:
// SUSPECT → PROBE → UPDATE CONFIGURATION (Zookeeper CAS) → REMAP REGIONS →
// SEND NEW-CONFIG → APPLY NEW-CONFIG → COMMIT NEW-CONFIG. One-sided RDMA
// makes server-side lease checks impossible, so consistency comes from
// precise membership: after NEW-CONFIG, machines stop issuing requests to
// non-members and ignore their replies and acks.

// reconfigAsk is the "please initiate reconfiguration" message a machine
// sends to the CM's k consistent-hashing successors when it suspects the
// CM (§5.2 step 1).
type reconfigAsk struct {
	Suspect  int
	ConfigID uint64
}

// regionActiveAnnounce tells members that a recovering region finished
// lock recovery and accepts references again (§5.3 step 4).
type regionActiveAnnounce struct {
	ConfigID uint64
	Region   uint32
}

// suspect starts reconfiguration with the given machine removed. Runs on
// the CM (lease expiry there) or on a machine taking over as CM.
func (m *Machine) suspect(failed int) { m.suspectFull(failed, false) }

// suspectFull is suspect with power-failure semantics: failed == -1 means
// no machine is being removed, and bumpAll forces every region's epochs to
// advance so all in-flight transactions recover (§5.3 applied cluster-wide
// after a power restoration).
func (m *Machine) suspectFull(failed int, bumpAll bool) {
	if !m.alive || m.reconfiguring {
		return
	}
	m.reconfiguring = true
	m.blockClients() // §5.2 step 1: block external clients at suspicion
	m.c.trace("suspect", m.ID, failed)
	m.c.Counters.Inc("reconfig_started", 1)
	if m.trb != nil {
		// All recovery spans for the configuration being formed share one
		// trace id so every machine's records merge into a single timeline.
		rid := trace.RecoveryTraceBit | (m.config.ID + 1)
		now := m.c.Eng.Now()
		m.trb.Event("recovery", "suspect", now, rid, 0, int64(failed))
		m.reconfigCtx = m.trb.Begin("recovery", "probe", now, rid, 0, int64(failed))
	}

	// Step 2: probe every other member with an RDMA read; non-responders
	// are also suspected. Proceed only with responses from a majority.
	suspects := map[int]bool{}
	if failed >= 0 {
		suspects[failed] = true
	}
	pending := 0
	responses := 1 // self
	total := len(m.config.Machines)
	finished := false
	finish := func() {
		if finished || !m.alive {
			return
		}
		finished = true
		if m.reconfigCtx.Valid() {
			m.trb.End(m.reconfigCtx, m.c.Eng.Now(), int64(responses))
			m.reconfigCtx = trace.Ctx{}
		}
		if responses*2 <= total {
			// We are in the minority partition: do not reconfigure.
			m.reconfiguring = false
			m.c.Counters.Inc("reconfig_minority_abandon", 1)
			return
		}
		m.c.trace("probe-done", m.ID, 0)
		m.updateConfiguration(suspects, bumpAll)
	}
	for _, mem := range m.config.Machines {
		id := int(mem)
		if id == m.ID || id == failed {
			continue
		}
		pending++
		m.nic.Probe(fabric.MachineID(id), func(err error) {
			if !m.alive {
				return
			}
			if err != nil {
				suspects[id] = true
			} else {
				responses++
			}
			pending--
			if pending == 0 {
				finish()
			}
		})
	}
	if pending == 0 {
		finish()
	}
}

// maybeWithdrawSuspicion undoes the §5.2 client block when the failure
// detector withdraws the suspicion behind it: the configuration is
// unchanged and committed, no reconfiguration is in flight, and every
// lease this machine watches is fresh again. The block runs "from the
// moment a suspicion occurs until the machine learns the outcome" — if
// the attempt was abandoned (probe minority, lost CAS) and the leases
// later recover with the configuration intact, the outcome IS the current
// configuration. Without this, a transient partition that makes
// reconfiguration impossible — both members of a two-machine
// configuration suspecting each other and abandoning as probe
// minorities — leaves every member blocked forever after the network
// heals. An evicted zombie never takes this path: the CM drops its
// stale-configuration lease requests, so its CM lease stays expired.
func (m *Machine) maybeWithdrawSuspicion() {
	if !m.clientsBlocked || m.reconfiguring || !m.configCommitted || !m.isMember(m.ID) {
		return
	}
	if !m.lease.fresh() {
		return
	}
	m.c.Counters.Inc("reconfig_suspicion_withdrawn", 1)
	m.c.trace("suspicion-withdrawn", m.ID, 0)
	m.unblockClients()
}

// backupCMs is k, the number of CM successors asked to take over
// reconfiguration before a machine tries itself (§5.2 step 1).
const backupCMs = 2

// suspectCM reacts to an expired CM lease: ask the k backup CMs (the CM's
// consistent-hashing successors) to reconfigure, then try ourselves if the
// configuration is unchanged after a timeout.
func (m *Machine) suspectCM() {
	if !m.alive || m.reconfiguring {
		return
	}
	cm := int(m.config.CM)
	cfg := m.config.ID
	succ := m.cmSuccessors()
	if len(succ) > 0 && succ[0] == m.ID {
		// We are the first backup CM: take over immediately.
		m.suspect(cm)
		return
	}
	for i, s := range succ {
		if i >= backupCMs {
			break
		}
		m.send(s, &reconfigAsk{Suspect: cm, ConfigID: cfg})
	}
	m.c.Eng.After(2*m.c.Opts.LeaseDuration, func() {
		if m.alive && m.config.ID == cfg && !m.reconfiguring {
			m.suspect(cm)
		}
	})
}

// cmSuccessors returns the members after the CM in ring order.
func (m *Machine) cmSuccessors() []int {
	members := make([]int, 0, len(m.config.Machines))
	cmIdx := -1
	for i, mem := range m.config.Machines {
		members = append(members, int(mem))
		if mem == m.config.CM {
			cmIdx = i
		}
	}
	if cmIdx == -1 || len(members) < 2 {
		return nil
	}
	var out []int
	for i := 1; i < len(members); i++ {
		out = append(out, members[(cmIdx+i)%len(members)])
	}
	return out
}

// onReconfigAsk handles a backup-CM takeover request.
func (m *Machine) onReconfigAsk(ask *reconfigAsk) {
	if ask.ConfigID != m.config.ID {
		return
	}
	m.suspect(ask.Suspect)
}

// updateConfiguration is step 3: CAS the new configuration into Zookeeper;
// exactly one contender wins the move from c to c+1.
func (m *Machine) updateConfiguration(suspects map[int]bool, bumpAll bool) {
	var members []uint16
	for _, mem := range m.config.Machines {
		if !suspects[int(mem)] {
			members = append(members, mem)
		}
	}
	newCfg := proto.Config{
		ID:       m.config.ID + 1,
		Machines: members,
		Domains:  m.config.Domains,
		CM:       uint16(m.ID),
	}
	m.c.ZK.CAS(m.config.ID, &newCfg, func(ok bool, _ uint64, _ interface{}, err error) {
		if !m.alive {
			return
		}
		m.reconfiguring = false
		if err != nil || !ok {
			// Someone else won; we will learn the new configuration via
			// NEW-CONFIG.
			m.c.Counters.Inc("reconfig_cas_lost", 1)
			return
		}
		m.c.trace("zookeeper", m.ID, int(newCfg.ID))
		if m.trb != nil {
			m.trb.Event("recovery", "zookeeper", m.c.Eng.Now(),
				trace.RecoveryTraceBit|newCfg.ID, 0, int64(newCfg.ID))
		}
		m.becomeCM(&newCfg, suspects, bumpAll)
	})
}

// becomeCM runs steps 4–5 at the (possibly new) CM: rebuild CM state if
// needed, remap regions, and push NEW-CONFIG to all members.
func (m *Machine) becomeCM(cfg *proto.Config, suspects map[int]bool, bumpAll bool) {
	cmChanged := m.config.CM != cfg.CM
	proceed := func() {
		if !m.alive {
			return
		}
		if m.cm == nil {
			m.cm = newCMState()
			// Rebuild the region table from our mapping cache; the next
			// region allocated follows the highest id in it.
			for id := range m.regions {
				if rm := m.regions[id].mapping; rm != nil {
					cp := *rm
					m.cm.regions = append(m.cm.regions, make([]cmRegion, id+1-len(m.cm.regions))...)
					m.cm.regions[id].rm = &cp
				}
			}
		}
		m.cm.regionsActive = make([]bool, len(m.peers))
		if bumpAll {
			for i := range m.cm.regions {
				if rm := m.cm.regions[i].rm; rm != nil {
					rm.LastPrimaryChange = cfg.ID
					rm.LastReplicaChange = cfg.ID
				}
			}
		}
		m.remapRegions(cfg, suspects)
		nc := &proto.NewConfig{Config: *cfg}
		for i := range m.cm.regions {
			if rm := m.cm.regions[i].rm; rm != nil {
				nc.Regions = append(nc.Regions, *rm)
			}
		}
		m.c.trace("remap-done", m.ID, 0)
		if m.trb != nil {
			rid := trace.RecoveryTraceBit | cfg.ID
			now := m.c.Eng.Now()
			m.trb.Event("recovery", "remap-done", now, rid, 0, 0)
			m.reconfigCtx = m.trb.Begin("recovery", "new-config", now, rid, 0, int64(len(cfg.Machines)))
		}
		// A round superseded before its commit hands its removals on: the
		// machines it dropped may still hold leases.
		for _, mem := range m.config.Machines {
			if !cfg.Member(mem) {
				m.cm.removed = append(m.cm.removed, int(mem))
			}
		}
		m.cm.ackCfg, m.cm.unbounded = cfg.ID, m.cm.unbounded || cmChanged || bumpAll
		// The paper waits for every ack with no timeout, so one half-dead
		// member would wedge reconfiguration with every client blocked. Each
		// member's NEW-CONFIG is a call resent twice, two lease durations
		// apart; a member whose call then fails is suspected, like one whose
		// lease expired.
		acks := len(cfg.Machines)
		r := resend{every: 2 * m.c.Opts.LeaseDuration, tries: 2, cfg: cfg.ID, ctx: m.reconfigCtx}
		for _, mem := range cfg.Machines {
			dst, push := int(mem), *nc
			push.ID = m.callResent(dst, &push, r, func(_ interface{}, err error) {
				switch {
				case m.cm == nil || m.cm.ackCfg != cfg.ID:
					// A round superseded by another suspicion.
				case err == nil:
					if acks--; acks == 0 {
						m.commitConfig(cfg.ID)
					}
				case m.IsCM() && m.config.ID == cfg.ID:
					m.c.Counters.Inc("reconfig_ack_timeout", 1)
					m.c.trace("ack-timeout", m.ID, dst)
					m.suspect(dst)
				}
			})
			m.sendCtx(dst, &push, m.reconfigCtx)
		}
	}
	if cmChanged && m.cm == nil {
		// A new CM must first build the data structures only the CM
		// maintains — the dominant cost in Figure 11's slower recovery.
		known := 0
		for i := range m.regions {
			if m.regions[i].mapping != nil {
				known++
			}
		}
		cost := sim.Time(known) * 16 * sim.Microsecond
		m.pool.ByIndex(0).Do(cost, proceed)
		return
	}
	proceed()
}

// remapRegions is step 4: restore f+1 replicas for regions that lost any,
// promoting surviving backups to primary so the region recovers fast.
func (m *Machine) remapRegions(cfg *proto.Config, suspects map[int]bool) {
	for i := range m.cm.regions {
		rm := m.cm.regions[i].rm
		if rm == nil {
			continue
		}
		var survivors []uint16
		primaryFailed := false
		for i, r := range rm.Replicas {
			if suspects[int(r)] || !cfg.Member(r) {
				if i == 0 {
					primaryFailed = true
				}
				continue
			}
			survivors = append(survivors, r)
		}
		if len(survivors) == len(rm.Replicas) && !primaryFailed {
			continue // untouched
		}
		if len(survivors) == 0 {
			m.c.noteLostRegion(rm.Region)
			continue
		}
		target := m.cm.mapping(m.cm.regions[i].locality) // nil for 0, none
		// Survivors stay (the first is promoted primary); new backups fill
		// the remainder.
		rm.Replicas = m.placeReplicas(cfg, survivors, m.c.Opts.Replication, target, int(cfg.ID))
		rm.LastReplicaChange = cfg.ID
		if primaryFailed {
			rm.LastPrimaryChange = cfg.ID
		}
	}
}

// onNewConfig is step 6 at every member: adopt the configuration and
// mappings, allocate space for newly assigned replicas, stop talking to
// non-members, classify in-flight transactions, and ack.
func (m *Machine) onNewConfig(src int, nc *proto.NewConfig) {
	if nc.Config.ID <= m.config.ID {
		if nc.Config.ID == m.config.ID && m.isMember(m.ID) {
			// A resend: the ack was lost.
			m.send(src, &proto.NewConfigAck{ID: nc.ID, ConfigID: nc.Config.ID})
		}
		return
	}
	oldCM := m.config.CM
	// Track whether any machine left: a removed machine may have been the
	// coordinator of transactions touching ANY region, so every region
	// must run the (possibly empty) recovery handshake (§5.3 step 3's
	// coordinator-removed clause).
	m.configShrank = false
	for _, old := range m.config.Machines {
		if !nc.Config.Member(old) {
			m.configShrank = true
			break
		}
	}
	// A new epoch invalidates every in-flight audit (digest comparisons
	// are only meaningful within one configuration) and must drop all
	// audit fences so they cannot outlive the epoch they were taken in.
	m.abortAudits("configuration changed")
	m.config = nc.Config
	m.reconfiguring = false
	if !m.config.Member(uint16(m.ID)) {
		// We were evicted: halt normal operation.
		m.c.Counters.Inc("evicted", 1)
		return
	}
	// Install mappings; note which replicas are new here, which are
	// promotions, and which regions must block pending lock recovery.
	for i := range nc.Regions {
		rm := nc.Regions[i]
		rs := m.growRegion(rm.Region)
		if rs == nil {
			continue // not an id a CM hands out
		}
		cp := rm
		rs.mapping = &cp
		hosted := false
		idx := -1
		for j, r := range rm.Replicas {
			if int(r) == m.ID {
				hosted = true
				idx = j
			}
		}
		rep := rs.rep
		switch {
		case hosted && rep == nil:
			// Newly assigned backup: fresh zeroed replica, to be filled by
			// data recovery (§5.4).
			mem, err := m.store.AllocateData(toNVRAM(rm.Region), m.c.Opts.Layout)
			if err != nil {
				panic(err)
			}
			m.installReplica(rm.Region, mem, rm.Size, false).needsDataRecovery = true
		case hosted && rep != nil && idx == 0 && !rep.primary:
			// Promoted from backup to primary (§5.2 step 4).
			rep.primary = true
			rep.active = false
			rep.allocRecovering = true
		case !hosted && rep != nil:
			// No longer a replica here (shouldn't normally happen: the CM
			// never removes live replicas); drop it.
			rs.rep = nil
			m.store.Free(toNVRAM(rm.Region))
		}
		// Block access to regions whose primary changed until their lock
		// recovery completes (§5.3 step 1).
		if rm.LastPrimaryChange == m.config.ID {
			rs.blocked = true
		}
	}
	// Precise membership: drop state toward machines no longer present. (A
	// newcomer's entry, and the log pair in it, is there since its Join.)
	for _, p := range m.peers {
		if p.id != m.ID && !m.isMember(p.id) {
			m.dropTruncStateFor(p)
		}
	}
	// Classify in-flight transactions (§5.3 step 3, coordinator side).
	for _, t := range m.inflight {
		if m.commitRecovering(t) {
			t.recovering = true
		}
	}
	// Step 6: "It also starts blocking requests from external clients."
	m.blockClients()
	// NEW-CONFIG resets the lease protocol if the CM changed (step 5).
	if oldCM != m.config.CM {
		m.lease.reset()
	}
	m.send(src, &proto.NewConfigAck{ID: nc.ID, ConfigID: m.config.ID})
	m.configCommitted = false
	// No answer comes from a machine that left, and the calls of a
	// superseded configuration end.
	m.failCalls(func(c pendingCall) bool { return !m.isMember(c.dst) || c.every > 0 && c.cfg < m.config.ID })
}

// commitRecovering evaluates the recovering predicate with the
// coordinator's full knowledge: written regions' replica epochs, read
// regions' primary epochs, and its own membership (§5.3 step 3).
func (m *Machine) commitRecovering(t *Tx) bool {
	if t.id.Config >= m.config.ID || t.phase == phaseDone {
		return false
	}
	for _, region := range t.writeRegions {
		rm := m.mapping(region)
		if rm == nil || rm.LastReplicaChange >= m.config.ID {
			return true
		}
	}
	for i := range t.set {
		e := &t.set[i]
		if !e.read {
			continue
		}
		rm := m.mapping(e.addr.Region)
		if rm == nil || rm.LastPrimaryChange >= m.config.ID {
			return true
		}
	}
	return false
}

// commitConfig is step 7 at the CM once every member acked cfg: wait out
// the leases the removed machines may hold (commitWait), then commit. A
// round that begins meanwhile (another suspicion) commits its own
// configuration instead.
func (m *Machine) commitConfig(cfg uint64) {
	m.c.Eng.After(m.lease.commitWait(m.cm.removed, m.cm.unbounded), func() {
		if !m.alive || !m.IsCM() || m.cm.ackCfg != cfg || m.config.ID != cfg {
			return
		}
		for _, r := range m.cm.removed {
			*leaseSlot(&m.lease.granted, r) = noLease // an id that comes back starts afresh
		}
		m.cm.removed, m.cm.unbounded = m.cm.removed[:0], false
		m.c.trace("config-commit", m.ID, int(cfg))
		if m.reconfigCtx.Valid() {
			m.trb.End(m.reconfigCtx, m.c.Eng.Now(), int64(cfg))
			m.reconfigCtx = trace.Ctx{}
		}
		if m.trb != nil {
			m.trb.Event("recovery", "config-commit", m.c.Eng.Now(), trace.RecoveryTraceBit|cfg, 0, int64(cfg))
		}
		r := resend{every: 2 * m.c.Opts.LeaseDuration, tries: math.MaxInt, cfg: cfg, ctx: m.recoveryTraceCtx()}
		for _, mem := range m.config.Machines {
			cc := &proto.NewConfigCommit{ConfigID: cfg}
			cc.ID = m.callResent(int(mem), cc, r, nil)
			m.sendCtx(int(mem), cc, r.ctx)
		}
	})
}

// onNewConfigCommit answers the CM and triggers transaction state
// recovery (§5.3).
func (m *Machine) onNewConfigCommit(src int, cc *proto.NewConfigCommit) {
	if cc.ConfigID != m.config.ID {
		return
	}
	m.send(src, &rpcReply{ID: cc.ID})
	if m.configCommitted {
		return // a resend: the answer was lost
	}
	m.configCommitted = true
	m.lease.start()
	// Step 7: "All members now unblock previously blocked external client
	// requests."
	m.unblockClients()
	m.startTxRecovery(cc.ConfigID)
}

// onBlockHeaderReq answers a new backup's or a promoted primary's request
// for every block header of a region this machine holds; a replica not in
// the requester's configuration yet leaves the call to its resend.
func (m *Machine) onBlockHeaderReq(src int, v *proto.BlockHeaderReq) {
	if rep := m.replica(v.Region); rep != nil && v.ConfigID == m.config.ID {
		m.send(src, &proto.BlockHeaderResp{ID: v.ID, ConfigID: v.ConfigID, Region: v.Region, Headers: m.blockHeaders(rep)})
	}
}

// onRegionsActive (CM): a machine finished lock recovery for all its
// primary regions; when everyone has, broadcast ALL-REGIONS-ACTIVE (§5.4).
func (m *Machine) onRegionsActive(src int, ra *proto.RegionsActive) {
	if !m.IsCM() || ra.ConfigID != m.config.ID || m.cm == nil || src < 0 || src >= len(m.cm.regionsActive) {
		return
	}
	m.send(src, &rpcReply{ID: ra.ID})
	if m.cm.regionsActive[src] {
		return // a resend: the answer was lost
	}
	m.cm.regionsActive[src] = true
	for _, mem := range m.config.Machines {
		if int(mem) >= len(m.cm.regionsActive) || !m.cm.regionsActive[mem] {
			return
		}
	}
	m.c.trace("all-active", m.ID, 0)
	r := m.recoveryResend(m.curCtx)
	for _, mem := range m.config.Machines {
		aa := &proto.AllRegionsActive{ConfigID: m.config.ID}
		aa.ID = m.callResent(int(mem), aa, r, nil)
		m.send(int(mem), aa)
	}
}

// onAllRegionsActive unblocks each region whose REGION-ACTIVE was lost and
// starts data recovery for new backups and allocator recovery at promoted
// primaries (§5.4, §5.5); one not recovering yet leaves it to the resend.
func (m *Machine) onAllRegionsActive(src int, aa *proto.AllRegionsActive) {
	if aa.ConfigID != m.config.ID || !m.recovering() {
		return
	}
	m.send(src, &rpcReply{ID: aa.ID})
	if m.recov.allActive {
		return // a resend: the answer was lost
	}
	m.recov.allActive = true
	m.c.trace("data-rec-start", m.ID, 0)
	for id := range m.regions {
		if m.regions[id].blocked {
			m.unblockRegion(uint32(id))
		}
		rep := m.regions[id].rep
		if rep == nil {
			continue
		}
		if rep.needsDataRecovery {
			m.startDataRecovery(rep)
		}
		if rep.primary && rep.allocRecovering && rep.alloc == nil {
			m.startAllocRecovery(rep)
		}
	}
}
