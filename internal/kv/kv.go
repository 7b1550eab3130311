// Package kv implements the FaRM hash table (§6.2, [16]): a distributed
// hash table over the FaRM global address space whose buckets are FaRM
// objects. A lookup is a single object read — one RDMA read when the
// bucket's primary is remote — and all mutations run inside the caller's
// transaction, so multi-table operations (TATP, TPC-C) compose into one
// atomic commit.
//
// Buckets hold a fixed number of slots plus an overflow chain pointer.
// The bucket directory (the []Addr produced at creation) is table
// metadata: in FaRM it is derived from the region registry; here the
// descriptor is shared by the application on all machines.
package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"farm/internal/core"
	"farm/internal/proto"
)

// ErrFull is returned when neither the bucket nor a new overflow bucket
// can accommodate an insert.
var ErrFull = errors.New("kv: table full")

// Table is a distributed hash table descriptor. It is immutable after
// Create and safe to share across machines.
type Table struct {
	Name     string
	buckets  []proto.Addr
	slots    int
	maxKey   int
	maxVal   int
	bodySize int
}

// Layout:
//
//	bucket := nextRegion u32 | nextOff u32 | slots × slot
//	slot   := used u8 | keyLen u16 | valLen u16 | key [maxKey] | val [maxVal]
const bucketHeader = 8

func (t *Table) slotSize() int { return 5 + t.maxKey + t.maxVal }

// BucketBytes returns the payload size of one bucket object.
func (t *Table) BucketBytes() int { return bucketHeader + t.slots*t.slotSize() }

// Buckets returns the number of top-level buckets.
func (t *Table) Buckets() int { return len(t.buckets) }

// hash maps a key to a top-level bucket.
func (t *Table) hash(key []byte) int {
	h := uint64(14695981039346656037) // FNV-1a, 64 bit
	for _, c := range key {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return int(h % uint64(len(t.buckets)))
}

// BucketAddr exposes the bucket address a key maps to (used by workloads
// for locality placement decisions).
func (t *Table) BucketAddr(key []byte) proto.Addr { return t.buckets[t.hash(key)] }

// Config sizes a table.
type Config struct {
	Name    string
	Buckets int
	Slots   int // slots per bucket (default 4)
	MaxKey  int
	MaxVal  int
	// Regions to spread buckets over (round-robin). Required.
	Regions []uint32
}

// Create allocates the bucket objects transactionally from machine m and
// returns the descriptor through cb. Buckets are spread over the given
// regions round-robin; with locality-partitioned workloads callers pass
// region sets hosted by specific machines.
func Create(m *core.Machine, cfg Config, cb func(*Table, error)) {
	if cfg.Buckets <= 0 || cfg.MaxKey <= 0 || cfg.MaxVal < 0 || len(cfg.Regions) == 0 {
		cb(nil, fmt.Errorf("kv: bad config %+v", cfg))
		return
	}
	if cfg.Slots == 0 {
		cfg.Slots = 4
	}
	t := &Table{
		Name:   cfg.Name,
		slots:  cfg.Slots,
		maxKey: cfg.MaxKey,
		maxVal: cfg.MaxVal,
	}
	t.buckets = make([]proto.Addr, cfg.Buckets)
	empty := make([]byte, t.BucketBytes())

	// Allocate in batches so one giant transaction does not exceed log
	// reservations.
	const batch = 32
	var allocFrom func(i int)
	allocFrom = func(i int) {
		if i >= cfg.Buckets {
			cb(t, nil)
			return
		}
		end := i + batch
		if end > cfg.Buckets {
			end = cfg.Buckets
		}
		tx := m.Begin(i % m.Threads())
		var allocOne func(j int)
		allocOne = func(j int) {
			if j == end {
				tx.Commit(func(err error) {
					if err != nil {
						cb(nil, err)
						return
					}
					allocFrom(end)
				})
				return
			}
			hint := proto.Addr{Region: cfg.Regions[j%len(cfg.Regions)]}
			tx.Alloc(len(empty), empty, &hint, func(addr proto.Addr, err error) {
				if err != nil {
					cb(nil, err)
					return
				}
				t.buckets[j] = addr
				allocOne(j + 1)
			})
		}
		allocOne(i)
	}
	allocFrom(0)
}

// MustCreate drives the simulation until Create completes (bootstrap
// helper for tests, examples and benchmarks).
func MustCreate(c *core.Cluster, m *core.Machine, cfg Config) *Table {
	var table *Table
	var cerr error
	done := false
	Create(m, cfg, func(t *Table, err error) {
		table, cerr, done = t, err, true
	})
	for !done {
		if !c.Eng.Step() {
			break
		}
	}
	if !done || cerr != nil {
		panic(fmt.Sprintf("kv: MustCreate(%s): done=%v err=%v", cfg.Name, done, cerr))
	}
	return table
}

// parsed bucket view.
type bucket struct {
	t    *Table
	data []byte
}

func (b bucket) next() proto.Addr {
	return proto.Addr{
		Region: binary.LittleEndian.Uint32(b.data[0:]),
		Off:    binary.LittleEndian.Uint32(b.data[4:]),
	}
}

func (b bucket) setNext(a proto.Addr) {
	binary.LittleEndian.PutUint32(b.data[0:], a.Region)
	binary.LittleEndian.PutUint32(b.data[4:], a.Off)
}

func (b bucket) slot(i int) []byte {
	s := b.t.slotSize()
	return b.data[bucketHeader+i*s : bucketHeader+(i+1)*s]
}

func slotUsed(s []byte) bool { return s[0] != 0 }

func slotKey(s []byte) []byte {
	kl := binary.LittleEndian.Uint16(s[1:])
	return s[5 : 5+kl]
}

func slotVal(s []byte, maxKey int) []byte {
	vl := binary.LittleEndian.Uint16(s[3:])
	return s[5+maxKey : 5+maxKey+int(vl)]
}

func (b bucket) setSlot(i int, key, val []byte) {
	s := b.slot(i)
	s[0] = 1
	binary.LittleEndian.PutUint16(s[1:], uint16(len(key)))
	binary.LittleEndian.PutUint16(s[3:], uint16(len(val)))
	copy(s[5:], key)
	copy(s[5+b.t.maxKey:], val)
}

func (b bucket) clearSlot(i int) { b.slot(i)[0] = 0 }

// find returns the slot index holding key, or -1.
func (b bucket) find(key []byte) int {
	for i := 0; i < b.t.slots; i++ {
		s := b.slot(i)
		if slotUsed(s) && bytes.Equal(slotKey(s), key) {
			return i
		}
	}
	return -1
}

// freeSlot returns an unused slot index, or -1.
func (b bucket) freeSlot() int {
	for i := 0; i < b.t.slots; i++ {
		if !slotUsed(b.slot(i)) {
			return i
		}
	}
	return -1
}

var zeroAddr = proto.Addr{}

// chainOp is one table operation on its way down a bucket chain. It is the
// read handler of every hop, so an operation allocates this and nothing per
// hop. Bucket bytes delivered to it are its own copy (core's ownership
// rule), which is what lets Get hand out a slice of them instead of a copy
// and Put edit them in place before writing them back.
type chainOp struct {
	t      *Table
	tx     *core.Tx      // nil for a lock-free get
	m      *core.Machine // lock-free get only
	thread int
	addr   proto.Addr // bucket being read

	key, val []byte
	// Exactly one of these is set; it says which operation this is.
	getCb func(val []byte, ok bool, err error)
	putCb func(err error)
	delCb func(ok bool, err error)
}

func (op *chainOp) read() {
	if op.tx != nil {
		op.tx.ReadTo(op.addr, op.t.BucketBytes(), op)
	} else {
		op.m.LockFreeReadTo(op.thread, op.addr, op.t.BucketBytes(), op)
	}
}

// ReadDone examines one bucket: act on the key's slot, follow the chain, or
// finish at its end.
func (op *chainOp) ReadDone(data []byte, err error) {
	if err != nil {
		op.fail(err)
		return
	}
	b := bucket{t: op.t, data: data}
	i := b.find(op.key)
	if i < 0 {
		if n := b.next(); n != zeroAddr {
			op.addr = n
			op.read()
			return
		}
	}
	switch {
	case op.getCb != nil:
		if i >= 0 {
			v := slotVal(b.slot(i), op.t.maxKey)
			op.getCb(v[:len(v):len(v)], true, nil)
		} else {
			op.getCb(nil, false, nil)
		}
	case op.delCb != nil:
		if i >= 0 {
			b.clearSlot(i)
			op.tx.Write(op.addr, b.data)
		}
		op.delCb(i >= 0, nil)
	default:
		if i < 0 {
			i = b.freeSlot()
		}
		if i < 0 {
			op.chainOverflow(b)
			return
		}
		b.setSlot(i, op.key, op.val)
		op.tx.Write(op.addr, b.data)
		op.putCb(nil)
	}
}

// chainOverflow links a fresh overflow bucket holding the pair behind the
// full last bucket b, near it (same region).
func (op *chainOp) chainOverflow(b bucket) {
	overflow := make([]byte, op.t.BucketBytes())
	bucket{t: op.t, data: overflow}.setSlot(0, op.key, op.val)
	hint := op.addr
	op.tx.Alloc(len(overflow), overflow, &hint, func(oaddr proto.Addr, err error) {
		if err != nil {
			op.putCb(ErrFull)
			return
		}
		b.setNext(oaddr)
		op.tx.Write(op.addr, b.data)
		op.putCb(nil)
	})
}

// fail reports err through whichever callback the operation has.
func (op *chainOp) fail(err error) {
	switch {
	case op.getCb != nil:
		op.getCb(nil, false, err)
	case op.delCb != nil:
		op.delCb(false, err)
	default:
		op.putCb(err)
	}
}

// Get looks key up within tx. ok reports presence; val is the caller's to
// keep and change.
func (t *Table) Get(tx *core.Tx, key []byte, cb func(val []byte, ok bool, err error)) {
	if len(key) > t.maxKey {
		cb(nil, false, fmt.Errorf("kv: key too long"))
		return
	}
	op := &chainOp{t: t, tx: tx, addr: t.buckets[t.hash(key)], key: key, getCb: cb}
	op.read()
}

// LockFreeGet is the single-read lookup outside any transaction (FaRM's
// lock-free reads, used by TATP's read-only single-row operations). It
// only examines the top-level bucket chain, retrying through the machine's
// lock-free read path.
func (t *Table) LockFreeGet(m *core.Machine, thread int, key []byte, cb func(val []byte, ok bool, err error)) {
	op := &chainOp{t: t, m: m, thread: thread, addr: t.buckets[t.hash(key)], key: key, getCb: cb}
	op.read()
}

// Put inserts or updates key within tx.
func (t *Table) Put(tx *core.Tx, key, val []byte, cb func(err error)) {
	if len(key) > t.maxKey || len(val) > t.maxVal {
		cb(fmt.Errorf("kv: key/value too long"))
		return
	}
	op := &chainOp{t: t, tx: tx, addr: t.buckets[t.hash(key)], key: key, val: val, putCb: cb}
	op.read()
}

// Delete removes key within tx; ok reports whether it was present.
func (t *Table) Delete(tx *core.Tx, key []byte, cb func(ok bool, err error)) {
	op := &chainOp{t: t, tx: tx, addr: t.buckets[t.hash(key)], key: key, delCb: cb}
	op.read()
}

// U64Key encodes an integer key (the common TATP/TPC-C case).
func U64Key(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}
