// Package kv implements the FaRM hash table (§6.2, [16]): a distributed
// hash table over the FaRM global address space whose buckets are FaRM
// objects. It is chained associative hopscotch hashing: a key lives in its
// home bucket, in one of the hood-1 buckets that follow the home in memory
// (its neighbourhood), or in the home's overflow chain, and one span read —
// one RDMA read when the buckets' primary is remote — fetches the whole
// neighbourhood. All mutations run inside the caller's transaction, so
// multi-table operations (TATP, TPC-C) compose into one atomic commit.
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
	"farm/internal/regionmem"
)

// ErrFull is returned when neither the bucket nor a new overflow bucket
// can accommodate an insert.
var ErrFull = errors.New("kv: table full")

// hood is the neighbourhood size: a home bucket and the hood-1 buckets that
// follow it in memory.
const hood = 4

// Table is a distributed hash table descriptor. Its layout is fixed at
// Create; besides it, it owns a pool of finished operations. It is safe to
// share across machines because the simulation engine is single-threaded.
type Table struct {
	Name     string
	buckets  []proto.Addr
	slots    int
	maxKey   int
	maxVal   int
	bodySize int
	// adj[j] is how many of the buckets after j in its region (j+step,
	// j+2*step, ...) follow it directly in memory, up to hood-1: bucket j's
	// neighbourhood is j and those. 0 at the end of a region's run, or where
	// an allocation broke adjacency.
	adj  []uint8
	step int
	// group masks the low bits of a key's first byte out of its hash
	// (Config.GroupBits).
	group byte
	// Where Get and LockFreeGet answered, and the reads they made: the
	// "kv_found_home", "kv_found_hood", "kv_found_chain", "kv_missed" and
	// "kv_reads" counter cells.
	cHome, cHood, cChain, cMiss, cReads *uint64
	// free holds finished operations for the next to reuse (chainOp).
	free []*chainOp
}

// Layout:
//
//	bucket := nextRegion u32 | nextOff u32 | slots × slot
//	slot   := used u8 | keyLen u16 | valLen u16 | key [maxKey] | val [maxVal]
//
// A bucket's offset is a multiple of its slot size (at least 16), so the low
// four bits of nextOff are free: bits 1..hood-1 are the home's hop bits,
// bit d set when neighbour d may hold a key of this home. The invariant: a
// key lives in its home, in a neighbour the home's hop bits name, or in the
// home's chain.
const (
	bucketHeader = 8
	hopBits      = 1<<hood - 2
	offLowBits   = 0xf
)

func (t *Table) slotSize() int { return 5 + t.maxKey + t.maxVal }

// BucketBytes returns the payload size of one bucket object.
func (t *Table) BucketBytes() int { return bucketHeader + t.slots*t.slotSize() }

// Buckets returns the number of top-level buckets.
func (t *Table) Buckets() int { return len(t.buckets) }

// hash maps a key to a top-level bucket.
func (t *Table) hash(key []byte) int {
	h := uint64(14695981039346656037) // FNV-1a, 64 bit
	for i, c := range key {
		if i == 0 {
			c &^= t.group
		}
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
	// GroupBits gives keys that differ only in the low GroupBits bits of
	// their first byte — the low bits of a U64Key — one home bucket, so a
	// transaction that looks up several keys of a group reads their
	// neighbourhood once. 0 (every key hashed whole) up to 7.
	GroupBits int
	// Regions to spread buckets over (round-robin). Required.
	Regions []uint32
}

// Create allocates the bucket objects transactionally from machine m and
// returns the descriptor through cb. Buckets are spread over the given
// regions round-robin; with locality-partitioned workloads callers pass
// region sets hosted by specific machines.
func Create(m *core.Machine, cfg Config, cb func(*Table, error)) {
	if cfg.Buckets <= 0 || cfg.MaxKey <= 0 || cfg.MaxVal < 0 || len(cfg.Regions) == 0 || cfg.GroupBits < 0 || cfg.GroupBits > 7 {
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
		group:  1<<cfg.GroupBits - 1,
	}
	t.buckets = make([]proto.Addr, cfg.Buckets)
	t.step = len(cfg.Regions)
	counters := m.Counters()
	t.cHome, t.cHood = counters.Cell("kv_found_home"), counters.Cell("kv_found_hood")
	t.cChain, t.cMiss = counters.Cell("kv_found_chain"), counters.Cell("kv_missed")
	t.cReads = counters.Cell("kv_reads")
	empty := make([]byte, t.BucketBytes())

	// Allocate in batches so one giant transaction does not exceed log
	// reservations.
	const batch = 32
	var allocFrom func(i int)
	allocFrom = func(i int) {
		if i >= cfg.Buckets {
			t.measureAdjacency()
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

// measureAdjacency fills adj from the bucket addresses. One slab class in
// ascending offsets lays a region's buckets back to back, a slot apart.
func (t *Table) measureAdjacency() {
	stride := uint32(regionmem.SlotSize(t.BucketBytes()))
	t.adj = make([]uint8, len(t.buckets))
	for j, a := range t.buckets {
		for d := 1; d < hood; d++ {
			i := j + d*t.step
			if i >= len(t.buckets) || t.buckets[i] != (proto.Addr{Region: a.Region, Off: a.Off + uint32(d)*stride}) {
				break
			}
			t.adj[j]++
		}
	}
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
		Off:    binary.LittleEndian.Uint32(b.data[4:]) &^ offLowBits,
	}
}

// hops returns the home's hop bits: bit d names neighbour d.
func (b bucket) hops() uint8 { return b.data[4] & hopBits }

func (b bucket) setNext(a proto.Addr) {
	binary.LittleEndian.PutUint32(b.data[0:], a.Region)
	binary.LittleEndian.PutUint32(b.data[4:], a.Off|uint32(b.hops()))
}

func (b bucket) setHops(h uint8) { b.data[4] = b.data[4]&^hopBits | h }

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

// holdsKeyOf reports whether b holds a key whose home is bucket home.
func (b bucket) holdsKeyOf(home int) bool {
	for i := 0; i < b.t.slots; i++ {
		if s := b.slot(i); slotUsed(s) && b.t.hash(slotKey(s)) == home {
			return true
		}
	}
	return false
}

var zeroAddr = proto.Addr{}

// chainOp is one table operation: a span read of the key's neighbourhood,
// then, if the key is in none of its buckets, a walk down the home's chain.
// It is the handler of every read it makes, and it comes from its table's
// pool: its continuation is bound once, and every terminal path returns it to
// the pool, reset whole, before the callback runs, so a callback that starts
// the next operation reuses it. A transaction that already holds the home
// walks the neighbourhood bucket by bucket from its own buffers instead, so
// repeating an operation on a key costs no verb.
type chainOp struct {
	t      *Table
	tx     *core.Tx      // nil for a lock-free get
	m      *core.Machine // lock-free get only
	thread int

	home, n int // home bucket, and the buckets in its neighbourhood
	// nb holds the neighbourhood's bucket bytes as far as they are known
	// (nil: not read). A span's are views, to look at only, until SpanDone
	// replaces those the operation changes or hands out with its own copies;
	// a bucket read alone is the operation's own.
	nb [hood][]byte
	// at is the neighbour holding the key, in its slot (-1: not in the
	// neighbourhood); free is the first neighbour with a free slot (-1:
	// none). pos is the neighbour a bucket read is for (-1: the chain
	// bucket at addr); placing says a Put is looking for a free slot.
	at, slot, free, pos int
	placing             bool
	addr                proto.Addr
	// tail is the last chain bucket, once a walk reached it (nil: no chain).
	// chainOverflow points tail and addr at the bucket it links behind.
	tail []byte
	// allocFn is allocated, bound once.
	allocFn func(proto.Addr, error)

	// key is the operation's copy of its key, in a buffer kept across
	// recycling, so no caller's key outlives the call.
	key, val []byte
	// Exactly one of these is set; it says which operation this is.
	getCb func(val []byte, ok bool, err error)
	putCb func(err error)
	delCb func(ok bool, err error)
}

func (t *Table) newOp(tx *core.Tx, key []byte) *chainOp {
	var op *chainOp
	if k := len(t.free); k > 0 {
		op = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		op = &chainOp{t: t}
		op.allocFn = op.allocated
	}
	home := t.hash(key)
	op.tx, op.home, op.n, op.key = tx, home, 1+int(t.adj[home]), append(op.key[:0], key...)
	return op
}

// recycle resets the op whole, but for its table, bound continuation and
// key buffer, and returns it to the pool. Its callers copy out the callback
// first.
func (op *chainOp) recycle() {
	t, allocFn, key := op.t, op.allocFn, op.key[:0]
	*op = chainOp{t: t, allocFn: allocFn, key: key}
	t.free = append(t.free, op)
}

// got, put and deleted end a Get, a Put and a Delete: the op returns to the
// pool, then the callback runs.
func (op *chainOp) got(val []byte, ok bool, err error) {
	cb := op.getCb
	op.recycle()
	cb(val, ok, err)
}

func (op *chainOp) put(err error) {
	cb := op.putCb
	op.recycle()
	cb(err)
}

func (op *chainOp) deleted(ok bool, err error) {
	cb := op.delCb
	op.recycle()
	cb(ok, err)
}

// nbAddr is the address of neighbour d.
func (op *chainOp) nbAddr(d int) proto.Addr { return op.t.buckets[op.home+d*op.t.step] }

// start reads the neighbourhood.
func (op *chainOp) start() {
	home, size := op.t.buckets[op.home], op.t.BucketBytes()
	switch {
	case op.tx == nil:
		op.count(home)
		op.m.LockFreeReadSpanTo(op.thread, home, size, op.n, op)
	case op.tx.Holds(home):
		op.readNeighbour(0)
	default:
		op.count(home)
		op.tx.ReadSpanTo(home, size, op.n, op)
	}
}

// count notes a read a lookup makes that its transaction's own buffers do
// not serve.
func (op *chainOp) count(addr proto.Addr) {
	if op.getCb != nil && (op.tx == nil || !op.tx.Holds(addr)) {
		*op.t.cReads++
	}
}

func (op *chainOp) readNeighbour(d int) {
	op.pos = d
	op.count(op.nbAddr(d))
	op.tx.ReadTo(op.nbAddr(d), op.t.BucketBytes(), op)
}

func (op *chainOp) readChain() {
	op.pos = -1
	op.count(op.addr)
	if op.tx != nil {
		op.tx.ReadTo(op.addr, op.t.BucketBytes(), op)
	} else {
		op.m.LockFreeReadTo(op.thread, op.addr, op.t.BucketBytes(), op)
	}
}

// search looks for the key in the home and the neighbours its hop bits
// name. It returns a flagged neighbour still to be read — one the
// transaction holds if there is one — or -1 once at says where the key is,
// or that no bucket of the neighbourhood has it.
func (op *chainOp) search() int {
	op.at = -1
	hops, missing := bucket{t: op.t, data: op.nb[0]}.hops(), -1
	for d := 0; d < op.n; d++ {
		if d > 0 && hops&(1<<d) == 0 {
			continue
		}
		if op.nb[d] == nil {
			if missing < 0 || op.tx.Holds(op.nbAddr(d)) {
				missing = d
			}
			continue
		}
		if i := (bucket{t: op.t, data: op.nb[d]}).find(op.key); i >= 0 {
			op.at, op.slot = d, i
			return -1
		}
	}
	return missing
}

// SpanNeeds names what the operation's answer depends on. A hit depends on
// the bucket holding the key, and a Get's read set also keeps the home,
// as an overflow hit keeps it; a Delete may clear a hop bit, so it needs the
// home. A miss depends on the home and its flagged neighbours, and a Put's
// also on the neighbour it will place the key in. A Get in a grouped table
// also keeps the home's flagged neighbours, where the rest of its key's
// group lives, so the transaction's next lookups of the group read nothing.
func (op *chainOp) SpanNeeds(s core.Span) (need, keep uint8) {
	for d := 0; d < s.N; d++ {
		op.nb[d] = s.Payload(d)
	}
	op.search()
	var group uint8 // what a grouped Get keeps besides its answer
	if op.getCb != nil && op.t.group != 0 {
		group = bucket{t: op.t, data: op.nb[0]}.hops()
	}
	switch {
	case op.at == 0:
		return 1, group
	case op.at > 0 && op.delCb != nil:
		return 1 | 1<<op.at, 0
	case op.at > 0:
		return 1 << op.at, 1 | group
	}
	need = 1 | bucket{t: op.t, data: op.nb[0]}.hops()
	if op.free = -1; op.putCb != nil {
		for d := 0; d < op.n && op.free < 0; d++ {
			if (bucket{t: op.t, data: op.nb[d]}).freeSlot() >= 0 {
				op.free = d
			}
		}
		if op.free > 0 {
			need |= 1 << op.free
		}
	}
	return need, 0
}

// SpanDone acts on the neighbourhood, having first made its own copies of
// the buckets it hands out or changes.
func (op *chainOp) SpanDone(s core.Span, err error) {
	if err != nil {
		op.fail(err)
		return
	}
	switch {
	case op.at >= 0:
		op.nb[op.at] = s.Own(op.at)
		if op.delCb != nil && op.at > 0 {
			op.nb[0] = s.Own(0)
		}
	case op.putCb != nil:
		op.nb[0] = s.Own(0)
		if op.free > 0 {
			op.nb[op.free] = s.Own(op.free)
		}
	}
	op.searched()
}

// ReadDone takes one bucket read alone: a neighbour, or a chain bucket.
func (op *chainOp) ReadDone(data []byte, err error) {
	if err != nil {
		op.fail(err)
		return
	}
	if op.pos >= 0 {
		op.nb[op.pos] = data
		if op.placing {
			op.place()
		} else if d := op.search(); d >= 0 {
			op.readNeighbour(d)
		} else {
			op.searched()
		}
		return
	}
	b := bucket{t: op.t, data: data}
	if i := b.find(op.key); i >= 0 {
		op.hit(b, op.addr, -1, i)
		return
	}
	if n := b.next(); n != zeroAddr {
		op.addr = n
		op.readChain()
		return
	}
	op.tail = data
	op.missed()
}

// searched goes on from a finished neighbourhood search: act on a hit, or
// walk the home's chain, or act on a miss.
func (op *chainOp) searched() {
	if op.at >= 0 {
		op.hit(bucket{t: op.t, data: op.nb[op.at]}, op.nbAddr(op.at), op.at, op.slot)
		return
	}
	if n := (bucket{t: op.t, data: op.nb[0]}).next(); n != zeroAddr {
		op.addr = n
		op.readChain()
		return
	}
	op.missed()
}

// hit acts on the key's slot i in bucket b at addr, neighbour d of the
// home (-1: a chain bucket). b is the operation's own.
func (op *chainOp) hit(b bucket, addr proto.Addr, d, i int) {
	switch {
	case op.getCb != nil:
		switch {
		case d == 0:
			*op.t.cHome++
		case d > 0:
			*op.t.cHood++
		default:
			*op.t.cChain++
		}
		v := slotVal(b.slot(i), op.t.maxKey)
		op.got(v[:len(v):len(v)], true, nil)
	case op.delCb != nil:
		b.clearSlot(i)
		op.tx.Write(addr, b.data)
		if home := (bucket{t: op.t, data: op.nb[0]}); d > 0 && !b.holdsKeyOf(op.home) {
			home.setHops(home.hops() &^ (1 << d))
			op.tx.Write(op.nbAddr(0), home.data)
		}
		op.deleted(true, nil)
	default:
		b.setSlot(i, op.key, op.val)
		op.tx.Write(addr, b.data)
		op.put(nil)
	}
}

// missed acts on a key that is nowhere.
func (op *chainOp) missed() {
	switch {
	case op.getCb != nil:
		*op.t.cMiss++
		op.got(nil, false, nil)
	case op.delCb != nil:
		op.deleted(false, nil)
	default:
		op.placing = true
		op.place()
	}
}

// place puts a new key in the first free slot of its home, then of the
// home's neighbours in order, setting the home's hop bit for a neighbour.
// Only a full neighbourhood sends it to the end of the home's chain.
func (op *chainOp) place() {
	for d := 0; d < op.n; d++ {
		if op.nb[d] == nil {
			op.readNeighbour(d)
			return
		}
		b := bucket{t: op.t, data: op.nb[d]}
		i := b.freeSlot()
		if i < 0 {
			continue
		}
		b.setSlot(i, op.key, op.val)
		op.tx.Write(op.nbAddr(d), b.data)
		if home := (bucket{t: op.t, data: op.nb[0]}); d > 0 && home.hops()&(1<<d) == 0 {
			home.setHops(home.hops() | 1<<d)
			op.tx.Write(op.nbAddr(0), home.data)
		}
		op.put(nil)
		return
	}
	if op.tail == nil {
		op.chainOverflow(bucket{t: op.t, data: op.nb[0]}, op.nbAddr(0))
		return
	}
	b := bucket{t: op.t, data: op.tail}
	if i := b.freeSlot(); i >= 0 {
		b.setSlot(i, op.key, op.val)
		op.tx.Write(op.addr, b.data)
		op.put(nil)
		return
	}
	op.chainOverflow(b, op.addr)
}

// chainOverflow links a fresh overflow bucket holding the pair behind the
// full last bucket b at addr, near it (same region).
func (op *chainOp) chainOverflow(b bucket, addr proto.Addr) {
	overflow := make([]byte, op.t.BucketBytes())
	bucket{t: op.t, data: overflow}.setSlot(0, op.key, op.val)
	op.tail, op.addr = b.data, addr
	hint := addr
	op.tx.Alloc(len(overflow), overflow, &hint, op.allocFn)
}

// allocated links the overflow bucket at oaddr behind the tail.
func (op *chainOp) allocated(oaddr proto.Addr, err error) {
	if err != nil {
		op.put(ErrFull)
		return
	}
	b := bucket{t: op.t, data: op.tail}
	b.setNext(oaddr)
	op.tx.Write(op.addr, b.data)
	op.put(nil)
}

// fail reports err through whichever callback the operation has.
func (op *chainOp) fail(err error) {
	switch {
	case op.getCb != nil:
		op.got(nil, false, err)
	case op.delCb != nil:
		op.deleted(false, err)
	default:
		op.put(err)
	}
}

// Get looks key up within tx. ok reports presence; val is the caller's to
// change, and valid until tx finishes (its Commit callback or Abort
// returns).
func (t *Table) Get(tx *core.Tx, key []byte, cb func(val []byte, ok bool, err error)) {
	if len(key) > t.maxKey {
		cb(nil, false, fmt.Errorf("kv: key too long"))
		return
	}
	op := t.newOp(tx, key)
	op.getCb = cb
	op.start()
}

// LockFreeGet is the lookup outside any transaction (FaRM's lock-free reads,
// used by TATP's read-only single-row operations): one span read of the
// key's neighbourhood, then the home's chain if the key is in none of it.
// val is a slice of the read's own buffer, valid until cb returns.
func (t *Table) LockFreeGet(m *core.Machine, thread int, key []byte, cb func(val []byte, ok bool, err error)) {
	op := t.newOp(nil, key)
	op.m, op.thread, op.getCb = m, thread, cb
	op.start()
}

// Put inserts or updates key within tx.
func (t *Table) Put(tx *core.Tx, key, val []byte, cb func(err error)) {
	if len(key) > t.maxKey || len(val) > t.maxVal {
		cb(fmt.Errorf("kv: key/value too long"))
		return
	}
	op := t.newOp(tx, key)
	op.val, op.putCb = val, cb
	op.start()
}

// Delete removes key within tx; ok reports whether it was present.
func (t *Table) Delete(tx *core.Tx, key []byte, cb func(ok bool, err error)) {
	op := t.newOp(tx, key)
	op.delCb = cb
	op.start()
}

// U64Key encodes an integer key (the common TATP/TPC-C case).
func U64Key(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}
