package proto

// This file defines the message types of Table 2 plus the lease,
// reconfiguration and region-allocation control messages of §3 and §5.
// Messages travel over the simulated reliable transport as values; only log
// records (proto.go) need binary encoding because they live in NVRAM.

import "farm/internal/pool"

// LockReply reports whether a primary managed to lock all objects named in
// a LOCK record (Table 2).
type LockReply struct {
	Tx TxID
	OK bool

	free *pool.Free[LockReply] // the pool it goes back to; nil for one made bare
}

// PooledLockReply returns a reply carrying tx's verdict from free, which
// Reclaim returns it to. The fabric reclaims it once the frame that carried
// it was delivered for the last time or lost, so a receiver takes what it
// needs from the reply during the delivery upcall and keeps no pointer to it.
func PooledLockReply(free *pool.Free[LockReply], tx TxID, ok bool) *LockReply {
	r := free.Get()
	*r = LockReply{Tx: tx, OK: ok, free: free}
	return r
}

// Reclaim returns a pooled reply to its pool; a bare one is the collector's.
func (r *LockReply) Reclaim() {
	if f := r.free; f != nil {
		*r = LockReply{}
		f.Put(r)
	}
}

// ValidateReq carries read-set addresses and versions for validation over
// RPC, used when a primary holds more than tr objects read by the
// transaction (§4 step 2; Table 2's VALIDATE message). ID is the
// coordinator's call id, which the reply echoes.
type ValidateReq struct {
	ID       uint64
	Addrs    []Addr
	Versions []uint64
}

// ValidateReply reports the outcome of RPC validation.
type ValidateReply struct {
	ID uint64
	OK bool
}

// Saw bits summarize which record types a replica holds for a transaction;
// the region's vote is computed over what *any* replica saw (§5.3 step 6).
const (
	SawLock uint8 = 1 << iota
	SawCommitBackup
	SawCommitPrimary
	SawAbort
	SawCommitRecovery
	SawAbortRecovery
)

// TxSeen pairs a recovering transaction with the record types the sending
// replica has for it.
type TxSeen struct {
	Tx  TxID
	Saw uint8
}

// NeedRecovery is sent by a backup to the primary of a region with the
// recovering transactions that updated the region (§5.3 step 3), annotated
// with which records the backup holds so the primary can both vote over
// all replicas' knowledge and fetch records it is missing.
//
// Every §5.3 request carries the sender's call id, ID, which its answer
// echoes: the sender resends the request until the answer comes.
type NeedRecovery struct {
	ID     uint64
	Config uint64
	Region uint32
	Txs    []TxSeen
}

// FetchTxState asks a backup for the log record of a recovering
// transaction the primary is missing (§5.3 step 4).
type FetchTxState struct {
	ID     uint64
	Config uint64
	Region uint32
	Tx     TxID
}

// SendTxState answers FetchTxState with the contents of the lock record.
type SendTxState struct {
	ID     uint64
	Config uint64
	Region uint32
	Tx     TxID
	Lock   *Record
}

// ReplicateTxState pushes a transaction's lock record from the primary to
// a backup that is missing it (§5.3 step 5).
type ReplicateTxState struct {
	ID     uint64
	Config uint64
	Region uint32
	Tx     TxID
	Lock   *Record
}

// ReplicateTxStateAck confirms a backup stored the replicated record.
type ReplicateTxStateAck struct {
	ID     uint64
	Config uint64
	Region uint32
	Tx     TxID
}

// RecoveryVote is a region primary's vote on a recovering transaction
// (§5.3 step 6). A pushed vote is a call; a vote answering a RequestVote
// is not, and carries ID 0.
type RecoveryVote struct {
	ID      uint64
	Config  uint64
	Region  uint32
	Tx      TxID
	Regions []uint32 // regions modified by the transaction
	Vote    Vote
}

// RequestVote is the coordinator's explicit vote request to primaries that
// have not voted within the timeout (§5.3 step 6). The region's vote
// answers it.
type RequestVote struct {
	Config uint64
	Tx     TxID
	Region uint32
}

// CommitRecovery tells participant replicas to commit a recovering
// transaction: processed like COMMIT-PRIMARY at primaries and
// COMMIT-BACKUP at backups (§5.3 step 7).
type CommitRecovery struct {
	ID     uint64
	Config uint64
	Tx     TxID
}

// AbortRecovery aborts a recovering transaction at a replica.
type AbortRecovery struct {
	ID     uint64
	Config uint64
	Tx     TxID
}

// RecoveryDecisionAck confirms a replica processed CommitRecovery or
// AbortRecovery.
type RecoveryDecisionAck struct {
	ID     uint64
	Config uint64
	Region uint32
	Tx     TxID
}

// TruncateRecovery is sent after the coordinator has collected all
// decision acks (§5.3 step 7).
type TruncateRecovery struct {
	ID     uint64
	Config uint64
	Tx     TxID
}

// --- Lease protocol (§5.1) ---

// LeaseRequest asks the CM (or, from the CM, a member) for a lease grant;
// leases use the 3-way handshake: request → grant+request → grant.
type LeaseRequest struct {
	Config uint64
	// Grant piggybacks a grant in the CM's combined grant+request message.
	Grant bool
	// Sent is the requester's clock (virtual ns) when it sent the request;
	// the grant+request echoes it, and the holder times its lease from it.
	Sent int64

	free *pool.Free[LeaseRequest] // the pool a pooled request returns to
}

// LeaseGrant completes the handshake.
type LeaseGrant struct {
	Config uint64

	free *pool.Free[LeaseGrant] // the pool a pooled grant returns to
}

// PooledLeaseRequest returns a request from free, which Reclaim returns it
// to. The fabric reclaims it once its last copy was
// delivered or lost, so a receiver copies what it needs during the delivery
// upcall.
func PooledLeaseRequest(free *pool.Free[LeaseRequest], config uint64, grant bool, sent int64) *LeaseRequest {
	r := free.Get()
	*r = LeaseRequest{Config: config, Grant: grant, Sent: sent, free: free}
	return r
}

// PooledLeaseGrant is PooledLeaseRequest for a grant.
func PooledLeaseGrant(free *pool.Free[LeaseGrant], config uint64) *LeaseGrant {
	g := free.Get()
	*g = LeaseGrant{Config: config, free: free}
	return g
}

// Reclaim returns a pooled request to its pool; a bare one is the
// collector's.
func (r *LeaseRequest) Reclaim() {
	if f := r.free; f != nil {
		*r = LeaseRequest{}
		f.Put(r)
	}
}

// Reclaim returns a pooled grant to its pool.
func (g *LeaseGrant) Reclaim() {
	if f := g.free; f != nil {
		*g = LeaseGrant{}
		f.Put(g)
	}
}

// --- Reconfiguration protocol (§5.2) ---

// RegionMap describes one region's placement: the first element is the
// primary, the rest are backups.
type RegionMap struct {
	Region   uint32
	Replicas []uint16 // machine ids
	// LastPrimaryChange and LastReplicaChange are the configuration ids of
	// the last primary/any-replica change, used to identify recovering
	// transactions (§5.3 step 3).
	LastPrimaryChange uint64
	LastReplicaChange uint64
	// Size is the region's byte size, so new replicas can allocate.
	Size int
}

// Config is the configuration tuple ⟨i, S, F, CM⟩ of §3.
type Config struct {
	ID       uint64
	Machines []uint16
	// Domains maps machine → failure domain.
	Domains map[uint16]int
	CM      uint16
}

// Member reports whether machine m is in the configuration.
func (c *Config) Member(m uint16) bool {
	for _, x := range c.Machines {
		if x == m {
			return true
		}
	}
	return false
}

// NewConfig is the CM's configuration push (§5.2 step 5): the new
// configuration plus all region mappings. It also acts as a lease request
// from a new CM. Like NewConfigCommit it is a call, and ID its call id.
type NewConfig struct {
	ID      uint64
	Config  Config
	Regions []RegionMap
}

// NewConfigAck acknowledges NewConfig (and grants/requests leases when the
// CM changed).
type NewConfigAck struct {
	ID       uint64
	ConfigID uint64
}

// NewConfigCommit commits the configuration once all members acked and old
// leases have expired (§5.2 step 7); it also acts as a lease grant and
// triggers log draining.
type NewConfigCommit struct {
	ID       uint64
	ConfigID uint64
}

// RegionsActive tells the CM all regions this machine is primary for are
// active again (§5.4). ID is the sender's call id.
type RegionsActive struct {
	ID       uint64
	ConfigID uint64
}

// AllRegionsActive broadcasts that every region is active; data recovery
// for new backups may begin (§5.4). ID is the CM's call id.
type AllRegionsActive struct {
	ID       uint64
	ConfigID uint64
}

// BlockHeaderResp answers a BlockHeaderReq with every block header the
// answering replica holds (§5.5). Outside data and allocator recovery a
// replica learns a block's header from the record that first fills the
// block (ObjectWrite.Class), never from a message of its own.
type BlockHeaderResp struct {
	// ID is the BlockHeaderReq answered.
	ID       uint64
	ConfigID uint64
	Region   uint32
	// Headers lists the headers in block order.
	Headers []BlockHeader
}

// BlockHeaderReq asks a replica of a region for every block header: a new
// backup asks its primary, as data recovery's first call (§5.4), made
// before any block is fetched; a promoted primary asks each backup, before
// allocator recovery scans (§5.5). ID is the requester's call id.
type BlockHeaderReq struct {
	ID       uint64
	ConfigID uint64
	Region   uint32
}

// BlockHeader is one block's allocator header: the object size class of
// the slab the block is (§5.5).
type BlockHeader struct {
	Block, Class int
}

// --- Region allocation (§3) ---

// AllocRegionReq asks the CM for a new region, optionally co-located with
// a target region (locality hint). ID is the requester's call id.
type AllocRegionReq struct {
	ID       uint64
	Size     int
	Locality uint32 // 0 = none; region id to co-locate with
	HasHint  bool
}

// AllocRegionPrepare is the CM→replica prepare of the two-phase region
// allocation protocol. ID is the CM's call id.
type AllocRegionPrepare struct {
	ID     uint64
	Region uint32
	Size   int
}

// AllocRegionPrepared answers the prepare, echoing its ID: OK when the
// replica reserved the region.
type AllocRegionPrepared struct {
	ID     uint64
	Region uint32
	OK     bool
}

// AllocRegionCommit commits the mapping at the replicas.
type AllocRegionCommit struct {
	Region uint32
	Map    RegionMap
}

// AllocRegionResp returns the new region's mapping to the requester.
type AllocRegionResp struct {
	OK  bool
	Map RegionMap
}

// MappingReq fetches a region's mapping on demand (cache miss). ID is the
// requester's call id.
type MappingReq struct {
	ID     uint64
	Region uint32
}

// MappingResp answers MappingReq, echoing its ID. The CM's unsolicited
// announcements of a new region carry ID 0, which answers no call.
type MappingResp struct {
	ID  uint64
	OK  bool
	Map RegionMap
}
