package proto

// This file defines the state-integrity audit protocol messages: a
// primary snapshots its region digest at a fenced point, asks every
// backup for theirs, and on divergence drills down block → object. Each
// request is a call of the primary's: ID is its call id, and the reply
// echoes it.

// AuditSnap asks a backup for its digest snapshot of one region. The
// primary's block headers ride along, in block order, so a backup that has
// not classed a block yet — one the primary claimed that no commit has
// filled — can install the metadata (and fold the block into its digest
// domain) before scanning — digest domains must match for the comparison
// to be meaningful.
type AuditSnap struct {
	ID      uint64
	Config  uint64
	Region  uint32
	Headers []BlockHeader
}

// AuditSnapReply carries one backup's snapshot. Settled is false when the
// backup could not reach a quiescent point (pending transactions on the
// region, data recovery in flight, configuration mismatch) — the audit is
// then inconclusive, never a divergence. Inc is the incrementally
// maintained digest, Scan the fresh ground-truth scan (their disagreement
// is the backup's self-check), and Blocks the scan digest of each block
// of the AuditSnap's Headers, in list order, for the drill-down.
type AuditSnapReply struct {
	ID      uint64
	Config  uint64
	Region  uint32
	Settled bool
	Inc     uint64
	Scan    uint64
	Blocks  []uint64
}

// AuditObjectsReq asks a diverged backup for one block's per-slot digests.
type AuditObjectsReq struct {
	ID     uint64
	Config uint64
	Region uint32
	Block  int
}

// AuditObjectsReply answers with the block's slot digests in slot order.
type AuditObjectsReply struct {
	ID      uint64
	Region  uint32
	Block   int
	Objects []uint64
}

// AuditRepair fences a divergent backup into re-replication: the backup
// re-runs §5.4 data recovery against the primary in force-copy mode
// (every differing slot is overwritten, not just newer-versioned ones)
// and reseeds its digest from a fresh scan when done.
type AuditRepair struct {
	ID     uint64
	Config uint64
	Region uint32
}

// AuditRepairDone reports a repair re-replication finished; the primary
// re-audits the region to verify the repair took.
type AuditRepairDone struct {
	ID     uint64
	Config uint64
	Region uint32
	OK     bool
}
