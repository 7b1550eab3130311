package core

// This file implements cluster-wide state-integrity auditing: every
// replica maintains an incremental order-independent digest of its
// committed state (internal/audit), and a region's primary can, on demand,
// fence the region at a quiescent point, snapshot digests at itself and
// every backup, and compare them. On divergence it drills down
// (region → block → object) to the first divergent object, fences the
// divergent backup into the §5.4 re-replication path in force-copy mode,
// and re-audits the repair.
//
// Two digests per replica are compared:
//
//   - Scan: recomputed from the raw bytes at snapshot time — the ground
//     truth. Cross-replica comparison uses scans, so silent corruption
//     (which bypasses the incremental hooks by definition) is caught.
//   - Inc: the incrementally maintained value. A replica whose Inc
//     disagrees with its own Scan has either corrupt memory or a missed
//     write hook; this self-check runs on every snapshot.
//
// Fencing: the primary rejects new LOCK acquisitions on the audited
// region (failures surface as ordinary conflict aborts that coordinators
// retry), then waits for in-flight transactions to drain — no held locks,
// no pending log records touching the region — before snapshotting.
// Backups run the same settle wait so truncation lag cannot masquerade as
// divergence. A snapshot that cannot settle reports inconclusive, which
// is a skip, never a violation. Any configuration change aborts all
// in-flight audits and drops every fence.

import (
	"fmt"
	"slices"

	"farm/internal/audit"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
	"farm/internal/trace"
)

const (
	// auditSettlePoll is the interval between quiescence checks.
	auditSettlePoll = 500 * sim.Microsecond
	// auditSettleRounds is how many consecutive quiet polls count as
	// settled (two, so records still in flight between NVRAM log and the
	// poll loop get one full poll cycle to surface).
	auditSettleRounds = 2
	// auditSettleDeadline bounds one settle wait; exceeding it makes the
	// snapshot inconclusive (chosen below TxStallTimeout: a stuck
	// transaction makes the audit skip, not block).
	auditSettleDeadline = 25 * sim.Millisecond
	// auditDeadline bounds a whole audit including repair re-replication
	// and the re-audit; a run that exceeds it reports inconclusive and
	// drops its fence.
	auditDeadline = 150 * sim.Millisecond
)

// AuditReport is the outcome of one region audit.
type AuditReport struct {
	ID     uint64
	Region uint32
	// Conclusive is false when the audit could not settle or complete
	// (fence contention, recovery in flight, deadline) — a skip.
	Conclusive bool
	// Clean reports digest equality across all replicas (valid only when
	// Conclusive).
	Clean bool
	// Backup/Block/Off localize the first divergence (-1 when unset):
	// the diverged machine, block index, and exact object offset.
	Backup int
	Block  int
	Off    int
	// Repaired reports that the divergent backup was re-replicated and
	// the re-audit came back clean.
	Repaired bool
	Note     string
}

// String renders the report for logs and replay files.
func (r AuditReport) String() string {
	switch {
	case !r.Conclusive:
		return fmt.Sprintf("audit %#x region %d: inconclusive (%s)", r.ID, r.Region, r.Note)
	case r.Clean:
		return fmt.Sprintf("audit %#x region %d: clean", r.ID, r.Region)
	default:
		s := fmt.Sprintf("audit %#x region %d: DIVERGED %s", r.ID, r.Region, r.Divergence())
		if r.Repaired {
			s += " (repaired, re-audit clean)"
		} else if r.Note != "" {
			s += " (" + r.Note + ")"
		}
		return s
	}
}

// Divergence renders the localization: which replica diverged and where.
func (r AuditReport) Divergence() string {
	if r.Backup < 0 {
		return ""
	}
	s := fmt.Sprintf("backup m%d", r.Backup)
	if r.Block >= 0 {
		s += fmt.Sprintf(" block %d", r.Block)
	}
	if r.Off >= 0 {
		s += fmt.Sprintf(" object @%d", r.Off)
	}
	return s
}

// auditRun is the primary-side state of one in-flight region audit. It
// hangs off its replica, rep (replica.audit), until it finishes.
type auditRun struct {
	id       uint64
	cfg      uint64
	deadline sim.Time
	rep      *replica
	cb       func(AuditReport)
	report   AuditReport
	span     trace.Ctx

	primaryScan uint64
	// primaryBlocks digests headers' blocks in order, as a reply's Blocks do.
	headers       []proto.BlockHeader
	primaryBlocks []uint64
	backups       []int
	// replies holds each backup's snapshot by its position in backups, nil
	// until the backup answers.
	replies []*proto.AuditSnapReply

	// reauditing marks the verification pass after a repair.
	reauditing bool
	done       bool
}

// commitWrite installs a committed write at a replica through the
// digest-aware path: the slot's old state is unfolded and its new state
// folded into the replica's incremental digest (O(1), zero allocations).
// Blocks whose class this replica does not know yet stay outside the
// digest domain until their class arrives (learnClasses, learnHeaders).
func (m *Machine) commitWrite(rep *replica, off int, newVersion uint64, allocated bool, payload []byte) {
	rep.mem.CommitWriteDigest(off, newVersion, allocated, payload, &rep.dig)
}

// learnHeaders classes the blocks of a primary's list that a backup has
// not classed yet, folding each into the digest domain (a block's class
// never changes, so a known header leaves the domain as it is).
func (m *Machine) learnHeaders(rep *replica, headers []proto.BlockHeader) {
	for _, h := range headers {
		if rep.mem.SetClass(h.Block, h.Class) {
			rep.dig.FoldBlock(rep.mem, h.Block)
		}
	}
}

// blockHeaders lists rep's class table in block order.
func (m *Machine) blockHeaders(rep *replica) []proto.BlockHeader {
	var out []proto.BlockHeader
	for b, class := range rep.mem.Classes() {
		if class != 0 {
			out = append(out, proto.BlockHeader{Block: b, Class: class})
		}
	}
	return out
}

// headerDigests returns rep's scan digest of each block of headers, in
// list order.
func headerDigests(rep *replica, headers []proto.BlockHeader) []uint64 {
	out := make([]uint64, len(headers))
	for i, h := range headers {
		out[i] = audit.BlockDigest(rep.mem, h.Block)
	}
	return out
}

// StartRegionAudit audits one region this machine is primary for. cb
// always fires exactly once — immediately with an inconclusive report if
// the region is not auditable here, or when the audit completes or hits
// its deadline.
func (m *Machine) StartRegionAudit(region uint32, cb func(AuditReport)) {
	report := AuditReport{Region: region, Backup: -1, Block: -1, Off: -1}
	rep := m.replica(region)
	if !m.alive || rep == nil || !rep.primary || !rep.active ||
		rep.audit != nil || m.regionBlocked(region) || rep.allocRecovering {
		report.Note = "primary not auditable"
		m.c.Counters.Inc("audit_skipped", 1)
		cb(report)
		return
	}
	m.nextAudit++
	id := uint64(m.ID+1)<<40 | m.nextAudit
	report.ID = id
	run := &auditRun{id: id, cfg: m.config.ID, deadline: m.c.Eng.Now() + auditDeadline, rep: rep, cb: cb, report: report}
	rep.audit = run
	m.c.Counters.Inc("audit_started", 1)
	if m.trb != nil {
		run.span = m.trb.Begin("audit", "audit", m.c.Eng.Now(), id, 0, int64(region))
	}
	m.c.Eng.After(auditDeadline, func() {
		if !run.done {
			run.report.Note = "audit deadline"
			m.finishAudit(run)
		}
	})
	m.auditSettle(run)
}

// regionQuiet reports whether no transaction is in flight against the
// replica's region at this machine: no held object locks and no pending
// (non-aborted, un-truncated) log records that write it. A transaction whose
// LOCK was refused here counts as aborted, or the retry stream the audit
// fence itself provokes keeps a busy region from ever looking quiet.
// Aggregation only, so ranging the maps directly is safe (see order.go).
func (m *Machine) regionQuiet(rep *replica) bool {
	if len(rep.lockOwner) != 0 {
		return false
	}
	for _, rt := range m.pend {
		if rt.lockRefused || rt.saw&(proto.SawAbort|proto.SawAbortRecovery) != 0 {
			continue
		}
		if remoteTxTouches(rt, rep.id) {
			return false
		}
	}
	return true
}

// remoteTxTouches reports whether a pending transaction writes the region.
func remoteTxTouches(rt *remoteTx, region uint32) bool {
	if rt.lock != nil {
		for _, w := range rt.lock.Writes {
			if w.Addr.Region == region {
				return true
			}
		}
		return false
	}
	for _, r := range rt.regionHint {
		if r == region {
			return true
		}
	}
	return false
}

// awaitQuiet is the settle loop of both sides of an audit: it polls the
// replica every auditSettlePoll and calls settled(true) once the region has
// been quiet auditSettleRounds polls in a row, or settled(false) once
// auditSettleDeadline has passed. The loop ends without a word when live
// turns false.
func (m *Machine) awaitQuiet(rep *replica, live func() bool, settled func(ok bool)) {
	deadline := m.c.Eng.Now() + auditSettleDeadline
	quiet := 0
	var poll func()
	poll = func() {
		if !live() {
			return
		}
		if m.regionQuiet(rep) {
			if quiet++; quiet >= auditSettleRounds {
				settled(true)
				return
			}
		} else {
			quiet = 0
		}
		if m.c.Eng.Now() >= deadline {
			settled(false)
			return
		}
		m.c.Eng.After(auditSettlePoll, poll)
	}
	poll()
}

// auditSettle waits (behind the fence) for the region to quiesce at the
// primary, then snapshots. Settle failure makes the audit inconclusive.
func (m *Machine) auditSettle(run *auditRun) {
	m.awaitQuiet(run.rep, func() bool {
		if !run.done && (!m.alive || m.config.ID != run.cfg) {
			run.report.Note = "configuration changed"
			m.finishAudit(run)
		}
		return !run.done
	}, func(ok bool) {
		if ok {
			m.auditSnapshot(run)
			return
		}
		run.report.Note = "settle timeout at primary"
		m.finishAudit(run)
	})
}

// auditCall sends msg to dst as a call of the run's, with *id set to the
// call's id. The call lives no longer than the run: the table fails it at
// the run's deadline or when the run's configuration ends, by which time
// the run has finished, so a failure does nothing and done only sees an
// answer that came while the run was open.
func (m *Machine) auditCall(run *auditRun, dst int, msg interface{}, id *uint64, done func(resp interface{})) {
	*id = m.callResent(dst, msg, resend{every: run.deadline - m.c.Eng.Now(), cfg: run.cfg},
		func(resp interface{}, err error) {
			if err == nil && !run.done {
				done(resp)
			}
		})
	m.sendCtx(dst, msg, run.span)
}

// auditSnapshot computes the primary's digests (running the incremental
// vs. scan self-check) and queries every live backup.
func (m *Machine) auditSnapshot(run *auditRun) {
	rep := run.rep
	run.primaryScan = audit.ScanRegion(rep.mem)
	run.headers = m.blockHeaders(rep)
	run.primaryBlocks = headerDigests(rep, run.headers)
	if inc := rep.dig.Value(); inc != run.primaryScan {
		// The primary's own memory disagrees with its incremental digest:
		// local corruption or a missed write hook. Re-replication flows
		// from the primary, so this cannot be repaired from a backup —
		// report it as a divergence at the primary itself.
		run.report.Conclusive = true
		run.report.Backup = m.ID
		run.report.Note = "primary incremental/scan mismatch"
		m.c.Counters.Inc("audit_self_mismatch", 1)
		m.auditDiverged(run)
		return
	}

	run.backups = run.backups[:0]
	rm := m.mapping(run.rep.id)
	if rm != nil {
		for _, b := range rm.Replicas[1:] {
			if int(b) != m.ID && m.isMember(int(b)) {
				run.backups = append(run.backups, int(b))
			}
		}
	}
	if len(run.backups) == 0 {
		run.report.Conclusive = true
		run.report.Clean = true
		run.report.Note = "no backups"
		m.finishAudit(run)
		return
	}
	run.replies = make([]*proto.AuditSnapReply, len(run.backups))
	for i, b := range run.backups {
		snap := &proto.AuditSnap{Config: run.cfg, Region: run.rep.id, Headers: run.headers}
		m.auditCall(run, b, snap, &snap.ID, func(resp interface{}) {
			run.replies[i] = resp.(*proto.AuditSnapReply)
			if !slices.Contains(run.replies, nil) {
				m.auditCompare(run)
			}
		})
	}
}

// onAuditSnap is the backup side: install any block headers we are
// missing (folding the new blocks into the digest domain — the audit
// doubles as allocator-metadata anti-entropy), settle locally, then reply
// with incremental and scan digests and each listed block's digest, in
// list order. A backup that cannot settle — pending transactions, data
// recovery in flight, configuration mismatch — answers Settled=false and
// the audit is inconclusive.
func (m *Machine) onAuditSnap(src int, v *proto.AuditSnap) {
	reply := &proto.AuditSnapReply{ID: v.ID, Config: m.config.ID, Region: v.Region}
	rep := m.replica(v.Region)
	if v.Config != m.config.ID || rep == nil || rep.primary ||
		rep.needsDataRecovery || rep.repairing {
		m.send(src, reply)
		return
	}
	m.learnHeaders(rep, v.Headers)
	cfg := m.config.ID
	m.awaitQuiet(rep, func() bool {
		// An audit aborted or superseded is not answered: the primary's
		// deadline ends it.
		return m.alive && m.config.ID == cfg && m.replica(v.Region) == rep &&
			!rep.needsDataRecovery && !rep.primary
	}, func(ok bool) {
		if ok {
			reply.Settled = true
			reply.Inc = rep.dig.Value()
			reply.Scan = audit.ScanRegion(rep.mem)
			reply.Blocks = headerDigests(rep, v.Headers)
		}
		m.send(src, reply)
	})
}

// auditCompare judges the collected snapshots: all settled and all scans
// equal (plus per-replica self-checks) is a pass; any unsettled reply is
// inconclusive; otherwise the first divergent backup (lowest machine id)
// is drilled into.
func (m *Machine) auditCompare(run *auditRun) {
	for i, b := range run.backups {
		if v := run.replies[i]; !v.Settled || v.Config != run.cfg {
			run.report.Note = fmt.Sprintf("backup m%d not settled", b)
			m.finishAudit(run)
			return
		}
	}
	for i, b := range run.backups {
		v := run.replies[i]
		if v.Scan == run.primaryScan && v.Inc == v.Scan {
			continue
		}
		// Divergence. Localize: first divergent block, then first
		// divergent object within it.
		run.report.Conclusive = true
		run.report.Backup = b
		if v.Inc != v.Scan {
			run.report.Note = "backup incremental/scan mismatch"
		}
		i := audit.FirstDivergent(run.primaryBlocks, v.Blocks)
		if i < 0 {
			// The primary's blocks agree yet something mismatched (stale
			// incremental only, or a block only the backup classed): no
			// object to localize, repair directly.
			m.auditDiverged(run)
			return
		}
		h := run.headers[i]
		run.report.Block = h.Block
		// The backup's slot digests of the block turn the first divergent
		// slot into the exact object offset.
		req := &proto.AuditObjectsReq{Config: run.cfg, Region: run.rep.id, Block: h.Block}
		m.auditCall(run, b, req, &req.ID, func(resp interface{}) {
			mine := audit.ObjectDigests(run.rep.mem, h.Block)
			if slot := audit.FirstDivergent(mine, resp.(*proto.AuditObjectsReply).Objects); slot >= 0 {
				run.report.Off = h.Block*m.c.Opts.Layout.BlockSize + slot*h.Class
			}
			m.auditDiverged(run)
		})
		return
	}
	// All backups match the primary: clean, or repaired on a re-audit.
	run.report.Conclusive = true
	run.report.Clean = !run.reauditing
	run.report.Repaired = run.reauditing
	m.finishAudit(run)
}

// onAuditObjectsReq serves the drill-down at a diverged backup: the named
// block's per-slot digests in slot order.
func (m *Machine) onAuditObjectsReq(src int, v *proto.AuditObjectsReq) {
	rep := m.replica(v.Region)
	if rep == nil || v.Config != m.config.ID || rep.mem.Class(v.Block) == 0 {
		return
	}
	m.send(src, &proto.AuditObjectsReply{
		ID: v.ID, Region: v.Region, Block: v.Block,
		Objects: audit.ObjectDigests(rep.mem, v.Block),
	})
}

// auditDiverged records a localized divergence and either hands the
// backup to the repair path (first pass only) or finishes with the
// failure. The repaired region is re-audited: the snapshot/compare
// machinery runs again, and a second divergence is reported, not
// re-repaired.
func (m *Machine) auditDiverged(run *auditRun) {
	m.c.Counters.Inc("audit_divergence", 1)
	m.c.trace("audit-divergence", run.report.Backup, int(run.rep.id))
	if m.trb != nil {
		m.trb.Event("audit", "divergence", m.c.Eng.Now(), run.id, run.span.Span, int64(run.report.Off))
	}
	if run.reauditing || run.report.Backup == m.ID {
		if run.reauditing {
			run.report.Note = "repair did not converge"
		}
		m.finishAudit(run)
		return
	}
	m.c.Counters.Inc("audit_repair_started", 1)
	req := &proto.AuditRepair{Config: run.cfg, Region: run.rep.id}
	m.auditCall(run, run.report.Backup, req, &req.ID, func(resp interface{}) {
		if v := resp.(*proto.AuditRepairDone); !v.OK || v.Config != run.cfg {
			run.report.Note = "repair failed"
			m.finishAudit(run)
			return
		}
		run.reauditing = true
		m.auditSettle(run)
	})
}

// onAuditRepair fences this backup replica into force-copy
// re-replication: the existing §5.4 data-recovery path refetches the
// region from the primary, overwriting every differing slot (the audit
// fence at the primary keeps the region quiescent meanwhile).
func (m *Machine) onAuditRepair(src int, v *proto.AuditRepair) {
	rep := m.replica(v.Region)
	if v.Config != m.config.ID || rep == nil || rep.primary ||
		rep.needsDataRecovery || rep.repairing {
		m.send(src, &proto.AuditRepairDone{ID: v.ID, Config: m.config.ID, Region: v.Region})
		return
	}
	rep.repairing = true
	rep.repairID = v.ID
	rep.needsDataRecovery = true
	m.c.trace("audit-repair", m.ID, int(v.Region))
	m.startDataRecovery(rep)
}

// finishAudit drops the fence, emits the trace/counter epilogue, and
// delivers the report. Idempotent; runs even on a machine that died
// mid-audit so cluster-level collectors always complete.
func (m *Machine) finishAudit(run *auditRun) {
	if run.done {
		return
	}
	run.done = true
	run.rep.audit = nil
	switch {
	case !run.report.Conclusive:
		m.c.Counters.Inc("audit_inconclusive", 1)
	case run.report.Clean || run.report.Repaired:
		m.c.Counters.Inc("audit_clean", 1)
	}
	if run.span.Valid() {
		var arg int64
		if run.report.Conclusive && !run.report.Clean {
			arg = 1
		}
		if !run.report.Conclusive {
			arg = 2
		}
		m.trb.End(run.span, m.c.Eng.Now(), arg)
	}
	run.cb(run.report)
}

// abortAudits cancels every in-flight audit this machine coordinates, in
// region order, and clears every repair mark — called on any configuration
// change and on power restoration, so a fence can never leak past the
// epoch it was taken in.
func (m *Machine) abortAudits(reason string) {
	for i := range m.regions {
		if r := m.regions[i].rep; r != nil {
			if run := r.audit; run != nil {
				run.report.Note = reason
				m.finishAudit(run)
			}
			r.repairing = false
		}
	}
}

// latestMember returns the alive member holding the latest configuration
// any alive member holds (the lowest id among equals), nil if none.
func (c *Cluster) latestMember() *Machine {
	var src *Machine
	for _, m := range c.Machines {
		if m.alive && m.config.Member(uint16(m.ID)) && (src == nil || m.config.ID > src.config.ID) {
			src = m
		}
	}
	return src
}

// StartAudit audits every region of the cluster (each at its primary)
// and delivers one report per region, sorted by region id, when all have
// completed. Regions whose primary is unknown or dead report
// inconclusive. done always fires within auditDeadline of the last
// region's start.
func (c *Cluster) StartAudit(done func([]AuditReport)) {
	src := c.latestMember()
	if src == nil {
		done(nil)
		return
	}
	var regions []uint32
	for id := range src.regions {
		if src.regions[id].mapping != nil {
			regions = append(regions, uint32(id))
		}
	}
	if len(regions) == 0 {
		done(nil)
		return
	}
	reports := make([]AuditReport, len(regions))
	remaining := len(regions)
	for i, r := range regions {
		collect := func(rep AuditReport) {
			reports[i] = rep
			remaining--
			if remaining == 0 {
				done(reports)
			}
		}
		rm := src.mapping(r)
		if rm == nil || len(rm.Replicas) == 0 {
			collect(AuditReport{Region: r, Backup: -1, Block: -1, Off: -1, Note: "no mapping"})
			continue
		}
		p := c.Machines[int(rm.Replicas[0])]
		if !p.alive {
			collect(AuditReport{Region: r, Backup: -1, Block: -1, Off: -1, Note: "primary dead"})
			continue
		}
		p.StartRegionAudit(r, collect)
	}
}

// RegionReplicas returns the region's replica machines (primary first)
// according to the latest configuration any alive member holds — the
// placement audits run against. Nil if no alive member knows the region.
func (c *Cluster) RegionReplicas(region uint32) []int {
	src := c.latestMember()
	if src == nil || src.mapping(region) == nil {
		return nil
	}
	out := make([]int, 0, len(src.mapping(region).Replicas))
	for _, r := range src.mapping(region).Replicas {
		out = append(out, int(r))
	}
	return out
}

// CorruptBackupObject flips one payload byte of a slot in a backup
// replica of the region, bypassing every write hook — simulated silent
// corruption for audit fault-injection tests. With allocated=true the
// first live object is hit; with allocated=false the last free slot (a
// target no workload will overwrite, for corruption that must persist
// under concurrent traffic). Returns the victim machine and object
// offset.
func (c *Cluster) CorruptBackupObject(region uint32, allocated bool) (machine, off int, ok bool) {
	src := c.latestMember()
	if src == nil {
		return -1, -1, false
	}
	rm := src.mapping(region)
	if rm == nil || len(rm.Replicas) < 2 {
		return -1, -1, false
	}
	layout := c.Opts.Layout
	for _, b := range rm.Replicas[1:] {
		bm := c.Machines[int(b)]
		rep := bm.replica(region)
		if !bm.alive || rep == nil || rep.primary {
			continue
		}
		var slots []int
		for blk, class := range rep.mem.Classes() {
			for o := blk * layout.BlockSize; class != 0 && o < (blk+1)*layout.BlockSize; o += class {
				slots = append(slots, o)
			}
		}
		if !allocated {
			// Search from the top so the victim slot is the least likely
			// to be claimed by the allocator later.
			slices.Reverse(slots)
		}
		for _, o := range slots {
			if regionmem.Allocated(rep.mem.ReadHeader(o)) != allocated {
				continue
			}
			b := []byte{0}
			rep.mem.ReadAt(b, o+regionmem.HeaderSize)
			b[0] ^= 0xA5
			rep.mem.WriteAt(b, o+regionmem.HeaderSize)
			c.Counters.Inc("corruption_injected", 1)
			c.trace("corrupt", bm.ID, o)
			return bm.ID, o, true
		}
	}
	return -1, -1, false
}
