// Package proto defines the wire-visible vocabulary of the FaRM protocols:
// the log record types of Table 1 (which are binary-encoded, because they
// are written into remote non-volatile ring buffers with one-sided RDMA and
// must be re-parseable during recovery) and the message types of Table 2
// plus the reconfiguration/lease control messages of §5.1–§5.2 (which
// travel as in-memory values over the simulated reliable transport).
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Addr is a FaRM global address: a region identifier plus an offset within
// the region (§3). Objects are always read at their primary.
type Addr struct {
	Region uint32
	Off    uint32
}

// String formats an address as region:offset.
func (a Addr) String() string { return fmt.Sprintf("%d:%d", a.Region, a.Off) }

// TxID is the transaction identifier ⟨c, m, t, l⟩ of §5.3: the
// configuration in which commit started, the coordinator machine, the
// coordinator thread, and a thread-local sequence number.
type TxID struct {
	Config  uint64
	Machine uint16
	Thread  uint16
	Local   uint64
}

// IsZero reports whether the id is unset.
func (id TxID) IsZero() bool { return id == TxID{} }

// String formats the id as ⟨c,m,t,l⟩.
func (id TxID) String() string {
	return fmt.Sprintf("⟨%d,%d,%d,%d⟩", id.Config, id.Machine, id.Thread, id.Local)
}

// CoordKey identifies the coordinating thread — the log/queue pair and the
// truncation lower-bound domain.
type CoordKey struct {
	Machine uint16
	Thread  uint16
}

// Coord returns the coordinator thread key of the transaction.
func (id TxID) Coord() CoordKey { return CoordKey{Machine: id.Machine, Thread: id.Thread} }

// RecordType enumerates the log record types of Table 1.
type RecordType uint8

// Table 1 log record types.
const (
	RecInvalid RecordType = iota
	RecLock
	RecCommitBackup
	RecCommitPrimary
	RecAbort
	RecTruncate
)

// String names the record type.
func (t RecordType) String() string {
	switch t {
	case RecLock:
		return "LOCK"
	case RecCommitBackup:
		return "COMMIT-BACKUP"
	case RecCommitPrimary:
		return "COMMIT-PRIMARY"
	case RecAbort:
		return "ABORT"
	case RecTruncate:
		return "TRUNCATE"
	default:
		return "INVALID"
	}
}

// ObjectWrite is one written object carried in a LOCK or COMMIT-BACKUP
// record: its address, the version observed at read time (the version to
// lock at), and the new value. Allocated is the object's allocation bit
// after commit — set for writes and allocations, clear for frees, because
// FaRM replicates allocation-state changes through the transaction write
// path (§5.5). Class is the slot size of the block an allocation's slot is
// in, 0 for any other write: the block's §5.5 header, checked by the
// primary against its own table and learned by the backups from the
// record that first fills the block. It is 0 or a power of two.
type ObjectWrite struct {
	Addr      Addr
	Version   uint64
	Allocated bool
	Class     int
	Value     []byte
}

// Record is a Table 1 log record. Per the table's note, every record
// piggybacks the coordinator thread's truncation state: a low bound on
// non-truncated local transaction ids and a set of transaction ids to
// truncate now.
type Record struct {
	Type RecordType
	Tx   TxID
	// Regions lists the ids of all regions containing objects written by
	// the transaction (LOCK and COMMIT-BACKUP records).
	Regions []uint32
	// Writes holds the addresses, lock versions and new values of written
	// objects the destination is primary (LOCK) or backup (COMMIT-BACKUP)
	// for.
	Writes []ObjectWrite
	// TruncLow is the piggybacked low bound on non-truncated local ids for
	// this coordinator thread.
	TruncLow uint64
	// TruncIDs are piggybacked ids, packed thread<<48 | local, of
	// transactions of any thread of this coordinator machine whose records
	// can be truncated.
	TruncIDs []uint64
}

// ErrBadRecord is returned when a log record fails to parse.
var ErrBadRecord = errors.New("proto: malformed log record")

// Encoded layout (little-endian):
//
//	u8 type | u64 config | u16 machine | u16 thread | u64 local | u64 truncLow
//	u16 n | n × u64 truncID
//	u16 n | n × u32 region
//	u16 n | n × { u32 region | u32 off | u64 version | u8 flags | u32 len | len bytes }
//
// A write's flags byte holds Allocated in bit 0 and log2 of Class, 0 for
// none, in the bits above.
const (
	recordFixedBytes = 1 + 8 + 2 + 2 + 8 + 8 + 2 + 2 + 2
	writeFixedBytes  = 4 + 4 + 8 + 1 + 4
	// maxClassLog2 bounds a decoded Class: no slot is wider than a region's
	// 32-bit offsets reach.
	maxClassLog2 = 31
)

// RecordSize returns the exact encoded length of r — what AppendRecord
// appends — by arithmetic, so reservations and frame buffers are sized
// without encoding anything.
func RecordSize(r *Record) int {
	size := recordFixedBytes + 8*len(r.TruncIDs) + 4*len(r.Regions) + writeFixedBytes*len(r.Writes)
	for i := range r.Writes {
		size += len(r.Writes[i].Value)
	}
	return size
}

// AppendRecord appends r's self-describing encoding to dst and returns the
// extended slice. With cap(dst)-len(dst) >= RecordSize(r) it allocates
// nothing, which is how ring frames are filled in place.
func AppendRecord(dst []byte, r *Record) []byte {
	b := append(dst, byte(r.Type))
	b = binary.LittleEndian.AppendUint64(b, r.Tx.Config)
	b = binary.LittleEndian.AppendUint16(b, r.Tx.Machine)
	b = binary.LittleEndian.AppendUint16(b, r.Tx.Thread)
	b = binary.LittleEndian.AppendUint64(b, r.Tx.Local)
	b = binary.LittleEndian.AppendUint64(b, r.TruncLow)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.TruncIDs)))
	for _, id := range r.TruncIDs {
		b = binary.LittleEndian.AppendUint64(b, id)
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Regions)))
	for _, rg := range r.Regions {
		b = binary.LittleEndian.AppendUint32(b, rg)
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Writes)))
	for i := range r.Writes {
		w := &r.Writes[i]
		b = binary.LittleEndian.AppendUint32(b, w.Addr.Region)
		b = binary.LittleEndian.AppendUint32(b, w.Addr.Off)
		b = binary.LittleEndian.AppendUint64(b, w.Version)
		var flags byte
		if w.Class != 0 {
			flags = byte(bits.TrailingZeros(uint(w.Class))) << 1
		}
		if w.Allocated {
			flags |= 1
		}
		b = append(b, flags)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(w.Value)))
		b = append(b, w.Value...)
	}
	return b
}

// reader is a bounds-checked cursor over an encoded record: once a take
// runs past the end every later take fails too, so DecodeRecord checks the
// error once.
type reader struct {
	b   []byte
	pos int
	err bool
}

func (r *reader) take(n int) []byte {
	if r.err || n < 0 || n > len(r.b)-r.pos {
		r.err = true
		return nil
	}
	out := r.b[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// count reads an element count and rejects one the remaining bytes cannot
// hold at minBytes per element, so hostile input cannot demand a large
// allocation.
func (r *reader) count(minBytes int) int {
	n := int(r.u16())
	if n*minBytes > len(r.b)-r.pos {
		r.err = true
		return 0
	}
	return n
}

// DecodeRecord decodes a record produced by AppendRecord into *rec,
// overwriting every field. The Writes, Regions and TruncIDs slices reuse
// rec's backing arrays where they are big enough, so decoding into a record
// that held as many elements before allocates nothing; an empty list leaves
// a nil slice nil and cuts a used one to length zero. The decoded
// ObjectWrite.Values ALIAS data (capacity-capped, so appending to one cannot
// scribble on its neighbour): a record decoded from a ring frame in place
// is valid until that frame is truncated, and one that must outlive it is
// Detached or Cloned first. On ErrBadRecord *rec is left zero.
func DecodeRecord(data []byte, rec *Record) error {
	rd := reader{b: data}
	typ := RecordType(rd.u8())
	if typ == RecInvalid || typ > RecTruncate {
		*rec = Record{}
		return ErrBadRecord
	}
	rec.Type = typ
	rec.Tx.Config = rd.u64()
	rec.Tx.Machine = rd.u16()
	rec.Tx.Thread = rd.u16()
	rec.Tx.Local = rd.u64()
	rec.TruncLow = rd.u64()
	rec.TruncIDs = resize(rec.TruncIDs, rd.count(8))
	for i := range rec.TruncIDs {
		rec.TruncIDs[i] = rd.u64()
	}
	rec.Regions = resize(rec.Regions, rd.count(4))
	for i := range rec.Regions {
		rec.Regions[i] = rd.u32()
	}
	rec.Writes = resize(rec.Writes, rd.count(writeFixedBytes))
	for i := range rec.Writes {
		w := &rec.Writes[i]
		w.Addr.Region = rd.u32()
		w.Addr.Off = rd.u32()
		w.Version = rd.u64()
		flags := rd.u8()
		w.Allocated, w.Class = flags&1 != 0, 0
		if k := flags >> 1; k > maxClassLog2 {
			rd.err = true
		} else if k != 0 {
			w.Class = 1 << k
		}
		w.Value = rd.take(int(rd.u32()))
	}
	if rd.err || rd.pos != len(data) {
		*rec = Record{}
		return ErrBadRecord
	}
	return nil
}

// resize returns s cut or extended to n elements, reusing its backing array
// when it holds n; the caller overwrites every element.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	return s[:n]
}

// Clone returns a copy of r that shares no memory with it, Values
// included: what a record owned by a pool, or decoded in place from a log
// frame, is handed out as. It outlives the frame. A nil r clones to nil.
func (r *Record) Clone() *Record {
	if r == nil {
		return nil
	}
	c := *r
	c.Regions = slices.Clone(r.Regions)
	c.Writes = slices.Clone(r.Writes)
	c.TruncIDs = slices.Clone(r.TruncIDs)
	c.Detach()
	return &c
}

// Detach gives r's Values bytes of their own, one allocation for all of
// them, so that r outlives whatever they aliased (DecodeRecord's input).
// Each stays capacity-capped; a nil Value stays nil.
func (r *Record) Detach() {
	n := 0
	for i := range r.Writes {
		n += len(r.Writes[i].Value)
	}
	if n == 0 {
		return
	}
	buf := make([]byte, n)
	for i := range r.Writes {
		if w := &r.Writes[i]; w.Value != nil {
			k := copy(buf, w.Value)
			w.Value, buf = buf[:k:k], buf[k:]
		}
	}
}

// Vote is a recovery vote (§5.3 step 6) sent by the primary of a region to
// the recovery coordinator of a transaction.
type Vote uint8

// Vote values, strongest first.
const (
	VoteUnknown Vote = iota
	VoteAbort
	VoteLock
	VoteCommitBackup
	VoteCommitPrimary
	VoteTruncated
)

// String names the vote.
func (v Vote) String() string {
	switch v {
	case VoteCommitPrimary:
		return "commit-primary"
	case VoteCommitBackup:
		return "commit-backup"
	case VoteLock:
		return "lock"
	case VoteAbort:
		return "abort"
	case VoteTruncated:
		return "truncated"
	default:
		return "unknown"
	}
}
