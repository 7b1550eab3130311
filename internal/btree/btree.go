// Package btree implements the FaRM B-tree used for TPC-C's range indexes
// (§6.2): a B-link tree whose nodes are FaRM objects. Internal nodes are
// cached at each machine, so every operation — Get, Put, Delete, the start
// of a Scan — reaches its leaf through the cache and reads that one object
// in the common case; fence keys on every node make stale-cache traversals
// safe — an operation that lands on the wrong node detects it from the
// fences and either follows the right-link or re-traverses, as in Minuet
// [37]. Only the leaf decides the operation, and only the leaf joins the
// transaction's read set.
//
// All mutations run inside the caller's transaction; a structure
// modification (split) re-descends transactionally and updates the whole
// affected path atomically within that transaction.
package btree

import (
	"encoding/binary"
	"fmt"
	"math"

	"farm/internal/core"
	"farm/internal/proto"
)

// maxKey is the hiFence of the rightmost path.
const maxKey = math.MaxUint64

// Tree is a B-tree descriptor, shared by all machines (like a kv.Table,
// this is application-distributed metadata; the anchor object holds the
// root address so the descriptor never changes).
type Tree struct {
	Name   string
	anchor proto.Addr
	order  int
	maxVal int

	// caches holds per-machine internal-node caches ("The B-Tree caches
	// internal nodes at each machine", §6.2).
	caches map[int]*cache
}

// opFree holds finished operations, of every tree, for the next to reuse
// (treeOp). An operation belongs to its tree only while it runs, and one
// pool serves TPC-C's thousands of per-district trees, each touched by few
// operations at a time, where a pool per tree would keep warming in every
// window. Trees, like the simulation that runs them, are single-threaded.
var opFree []*treeOp

// cache is one machine's copy of the anchor and of internal nodes: committed
// bytes from lock-free reads, looked up by address and never iterated, and
// only ever read synchronously. They are copies the cache owns, never a
// transaction's bytes, which are recycled when it finishes
// (TestCacheHoldsNoTransactionBytes), nor a lock-free read's buffer, which
// is recycled when its handler returns. An entry can be stale; it is dropped
// when the node it named rejects a key by its fences or a split rewrites
// it, and dropping one is always safe. A dropped entry keeps its bytes as an
// empty slice under its address, which the next descent that needs the node
// fetches again and fills in place.
type cache struct {
	nodes map[proto.Addr][]byte // empty: dropped
	hits  uint64                // cached entries walked through
	miss  uint64                // lock-free reads that fetched an entry

	descents  uint64 // operations that looked for their leaf
	txReads   uint64 // transactional node reads on the way there
	fenceMiss uint64 // nodes reached whose fences rejected the key
	fallbacks uint64 // transactional descents from the anchor
}

// Node layout (payload bytes):
//
//	isLeaf u8 | height u8 | nkeys u16 | pad u32
//	loFence u64 | hiFence u64 | next (u32 region, u32 off)
//	keys   order × u64
//	leaf:  vals order × (u16 len | maxVal bytes)
//	inner: children (order+1) × (u32 region, u32 off)
//
// height is the node's distance from the leaves (0 for a leaf). It never
// changes, nor does loFence; hiFence only shrinks (splits move the upper
// half to a new right sibling), and nodes are never freed or merged. So a
// pointer, however old, reaches a live node of the level it was read at,
// and the node covering a key is that one or to its right.
//
// The anchor is root (u32 region, u32 off) | root height u8 | pad: it tells
// a descent how many cached levels lie above the leaf it must read.
const (
	nodeHeader  = 8 + 8 + 8 + 8
	anchorBytes = 16
)

func anchorRoot(a []byte) (proto.Addr, int) { return addrFromBytes(a), int(a[8]) }

// putAnchor encodes an anchor naming root, height levels above the leaves,
// into a.
func putAnchor(a []byte, root proto.Addr, height int) {
	binary.LittleEndian.PutUint32(a, root.Region)
	binary.LittleEndian.PutUint32(a[4:], root.Off)
	a[8] = byte(height)
}

func (t *Tree) valSlot() int { return 2 + t.maxVal }

// NodeBytes is the payload size of one node object.
func (t *Tree) NodeBytes() int {
	leaf := t.order * t.valSlot()
	inner := (t.order + 1) * 8
	body := leaf
	if inner > body {
		body = inner
	}
	return nodeHeader + t.order*8 + body
}

type node struct {
	t    *Tree
	data []byte
}

func (n node) isLeaf() bool    { return n.data[0] != 0 }
func (n node) setLeaf(v bool)  { n.data[0] = b2u(v) }
func (n node) height() int     { return int(n.data[1]) }
func (n node) setHeight(h int) { n.data[1] = byte(h) }
func (n node) nkeys() int      { return int(binary.LittleEndian.Uint16(n.data[2:])) }
func (n node) setNKeys(k int)  { binary.LittleEndian.PutUint16(n.data[2:], uint16(k)) }
func (n node) lo() uint64      { return binary.LittleEndian.Uint64(n.data[8:]) }
func (n node) hi() uint64      { return binary.LittleEndian.Uint64(n.data[16:]) }
func (n node) setLo(v uint64)  { binary.LittleEndian.PutUint64(n.data[8:], v) }
func (n node) setHi(v uint64)  { binary.LittleEndian.PutUint64(n.data[16:], v) }
func (n node) next() proto.Addr {
	return proto.Addr{Region: binary.LittleEndian.Uint32(n.data[24:]), Off: binary.LittleEndian.Uint32(n.data[28:])}
}
func (n node) setNext(a proto.Addr) {
	binary.LittleEndian.PutUint32(n.data[24:], a.Region)
	binary.LittleEndian.PutUint32(n.data[28:], a.Off)
}

func (n node) key(i int) uint64 { return binary.LittleEndian.Uint64(n.data[nodeHeader+i*8:]) }
func (n node) setKey(i int, k uint64) {
	binary.LittleEndian.PutUint64(n.data[nodeHeader+i*8:], k)
}

func (n node) valOff(i int) int { return nodeHeader + n.t.order*8 + i*n.t.valSlot() }

func (n node) val(i int) []byte {
	off := n.valOff(i)
	l := int(binary.LittleEndian.Uint16(n.data[off:]))
	return n.data[off+2 : off+2+l]
}

func (n node) setVal(i int, v []byte) {
	off := n.valOff(i)
	binary.LittleEndian.PutUint16(n.data[off:], uint16(len(v)))
	copy(n.data[off+2:], v)
}

func (n node) childOff(i int) int { return nodeHeader + n.t.order*8 + i*8 }

func (n node) child(i int) proto.Addr {
	off := n.childOff(i)
	return proto.Addr{Region: binary.LittleEndian.Uint32(n.data[off:]), Off: binary.LittleEndian.Uint32(n.data[off+4:])}
}

func (n node) setChild(i int, a proto.Addr) {
	off := n.childOff(i)
	binary.LittleEndian.PutUint32(n.data[off:], a.Region)
	binary.LittleEndian.PutUint32(n.data[off+4:], a.Off)
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// childIndex returns which child to descend into for key.
func (n node) childIndex(key uint64) int {
	i := 0
	for i < n.nkeys() && key >= n.key(i) {
		i++
	}
	return i
}

// leafIndex returns the slot of key in a leaf, or (insertPos, false).
func (n node) leafIndex(key uint64) (int, bool) {
	i := 0
	for i < n.nkeys() && n.key(i) < key {
		i++
	}
	if i < n.nkeys() && n.key(i) == key {
		return i, true
	}
	return i, false
}

// insertAt shifts keys/vals (leaf) right from position i.
func (n node) leafInsertAt(i int, key uint64, val []byte) {
	for j := n.nkeys(); j > i; j-- {
		n.setKey(j, n.key(j-1))
		n.setVal(j, n.val(j-1))
	}
	n.setKey(i, key)
	n.setVal(i, val)
	n.setNKeys(n.nkeys() + 1)
}

func (n node) leafRemoveAt(i int) {
	for j := i; j < n.nkeys()-1; j++ {
		n.setKey(j, n.key(j+1))
		n.setVal(j, n.val(j+1))
	}
	n.setNKeys(n.nkeys() - 1)
}

func (n node) innerInsertAt(i int, key uint64, right proto.Addr) {
	for j := n.nkeys(); j > i; j-- {
		n.setKey(j, n.key(j-1))
	}
	for j := n.nkeys() + 1; j > i+1; j-- {
		n.setChild(j, n.child(j-1))
	}
	n.setKey(i, key)
	n.setChild(i+1, right)
	n.setNKeys(n.nkeys() + 1)
}

// Config sizes a tree.
type Config struct {
	Name   string
	Order  int // keys per node (default 8)
	MaxVal int
	Region uint32 // region for the anchor and root
}

// Create allocates the anchor and an empty root leaf from machine m.
func Create(m *core.Machine, cfg Config, cb func(*Tree, error)) {
	if cfg.Order == 0 {
		cfg.Order = 8
	}
	if cfg.Order < 3 || cfg.Region == 0 {
		cb(nil, fmt.Errorf("btree: bad config %+v", cfg))
		return
	}
	t := &Tree{Name: cfg.Name, order: cfg.Order, maxVal: cfg.MaxVal, caches: make(map[int]*cache)}
	hint := proto.Addr{Region: cfg.Region}
	tx := m.Begin(0)
	root := node{t: t, data: make([]byte, t.NodeBytes())}
	root.setLeaf(true)
	root.setHi(maxKey)
	tx.Alloc(len(root.data), root.data, &hint, func(rootAddr proto.Addr, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		anchor := make([]byte, anchorBytes)
		putAnchor(anchor, rootAddr, 0)
		tx.Alloc(anchorBytes, anchor, &hint, func(anchorAddr proto.Addr, err error) {
			if err != nil {
				cb(nil, err)
				return
			}
			t.anchor = anchorAddr
			tx.Commit(func(err error) {
				if err != nil {
					cb(nil, err)
					return
				}
				cb(t, nil)
			})
		})
	})
}

// MustCreate drives the simulation until Create completes.
func MustCreate(c *core.Cluster, m *core.Machine, cfg Config) *Tree {
	var tree *Tree
	var cerr error
	done := false
	Create(m, cfg, func(t *Tree, err error) { tree, cerr, done = t, err, true })
	for !done {
		if !c.Eng.Step() {
			break
		}
	}
	if !done || cerr != nil {
		panic(fmt.Sprintf("btree: MustCreate(%s): %v", cfg.Name, cerr))
	}
	return tree
}

func (t *Tree) cacheFor(id int) *cache {
	c := t.caches[id]
	if c == nil {
		c = &cache{nodes: make(map[proto.Addr][]byte)}
		t.caches[id] = c
	}
	return c
}

// CacheStats reports (hits, misses) of a machine's internal-node cache:
// cached entries its descents walked through, and lock-free reads that
// fetched one.
func (t *Tree) CacheStats(machine int) (uint64, uint64) {
	c := t.cacheFor(machine)
	return c.hits, c.miss
}

// DescentStats sums, over every machine, what finding leaves has cost, in
// this order: operations that descended, the transactional and the lock-free
// node reads they made on the way (a scan's walk along the leaves is not a
// descent), nodes whose fences rejected the key, and fully transactional
// descents.
func (t *Tree) DescentStats() (s [5]uint64) {
	for _, c := range t.caches {
		for i, v := range [...]uint64{c.descents, c.txReads, c.miss, c.fenceMiss, c.fallbacks} {
			s[i] += v
		}
	}
	return s
}

// fill caches a copy of the committed bytes a lock-free read of addr
// delivered, in the bytes of the entry it dropped if there was one.
func (c *cache) fill(addr proto.Addr, data []byte) {
	b := c.nodes[addr]
	if cap(b) < len(data) {
		b = make([]byte, len(data))
	}
	c.nodes[addr] = b[:copy(b[:len(data)], data)]
}

// drop empties addr's entry, keeping its bytes for the next fill.
func (c *cache) drop(addr proto.Addr) {
	if b, ok := c.nodes[addr]; ok {
		c.nodes[addr] = b[:0]
	}
}

var errTooDeep = fmt.Errorf("btree: descent too deep")

type pathEntry struct {
	addr proto.Addr
	data []byte
}

// treeOp is one tree operation: a descent to the leaf covering key, then
// the operation's work there. It is the read handler of every node read on
// the way (stage says which read is outstanding), and it comes from the
// package's pool (opFree): its continuations are bound once, and every
// terminal path returns it to the pool, reset whole, before the callback
// runs, so a
// callback that starts the next operation reuses it. Node bytes delivered to
// it are its own copy (core's ownership rule): Get and Scan hand out slices
// of them, writers edit them in place and write them back. A split builds
// each new node in buf, which the op keeps across recycling: Tx.Alloc copies
// it before its callback runs, and the next level's split starts only then.
// A root split's new anchor is built on the stack: Write copies it.
type treeOp struct {
	t   *Tree
	tx  *core.Tx
	c   *cache // of the coordinator's machine
	key uint64
	val []byte

	stage   uint8
	attempt int        // cached descents abandoned so far
	addr    proto.Addr // the node being read
	depth   int        // its level below the root (tx descents)
	height  int        // its expected height (cached descents)
	from    proto.Addr // the cache entry that named it (cached descents)
	hops    int        // nodes cached descents have visited, all attempts together
	// path is the transactionally read root→leaf path: set by tx descents
	// only, which is how a Put at a full leaf tells whether it can split.
	path    []pathEntry
	pathBuf [4]pathEntry

	limit, found int // Scan: the most pairs to append to out, and those appended
	out          []Pair

	// A Put that splits: left (at leftAddr, path[up]) is the node being
	// split, whose new right sibling is being allocated, and sep the
	// separator to insert into left's parent afterwards. For the new root
	// above a split root (up is -1) left is that root itself.
	left     node
	leftAddr proto.Addr
	sep      uint64
	up       int
	allocFn  func(proto.Addr, error)
	buf      []byte // NodeBytes, kept across recycling

	// Exactly one of these is set; it says which operation this is.
	getCb  func(val []byte, ok bool, err error)
	putCb  func(err error)
	delCb  func(ok bool, err error)
	scanCb func(pairs []Pair, err error)
}

// The read a treeOp is waiting for.
const (
	stAnchor       = iota // tx read of the anchor
	stNode                // tx read of a path node
	stCachedAnchor        // lock-free read of the anchor
	stCachedNode          // lock-free read of an uncached internal node
	stLeaf                // tx read of the leaf a cached descent found
	stScanLeaf            // tx read of a scan's next leaf
)

func (t *Tree) newOp(tx *core.Tx, key uint64) *treeOp {
	var op *treeOp
	if k := len(opFree); k > 0 {
		op = opFree[k-1]
		opFree[k-1] = nil
		opFree = opFree[:k-1]
	} else {
		op = &treeOp{}
		op.allocFn = op.onAlloc
	}
	op.t, op.tx, op.key = t, tx, key
	return op
}

// recycle resets the op whole, but for its bound continuation and node
// buffer, and returns it to the pool. Its callers copy out the callback
// first.
func (op *treeOp) recycle() {
	allocFn, buf := op.allocFn, op.buf
	*op = treeOp{allocFn: allocFn, buf: buf}
	opFree = append(opFree, op)
}

// newNode returns op's node buffer, cleared and grown to the tree's node
// size, to build a split's new node in.
func (op *treeOp) newNode() node {
	n := op.t.NodeBytes()
	if cap(op.buf) < n {
		op.buf = make([]byte, n)
	}
	op.buf = op.buf[:n]
	clear(op.buf)
	return node{t: op.t, data: op.buf}
}

// got, put, deleted and scanned end a Get, a Put, a Delete and a Scan: the
// op returns to the pool, then the callback runs.
func (op *treeOp) got(val []byte, ok bool, err error) {
	cb := op.getCb
	op.recycle()
	cb(val, ok, err)
}

func (op *treeOp) put(err error) {
	cb := op.putCb
	op.recycle()
	cb(err)
}

func (op *treeOp) deleted(ok bool, err error) {
	cb := op.delCb
	op.recycle()
	cb(ok, err)
}

func (op *treeOp) scanned(pairs []Pair, err error) {
	cb := op.scanCb
	op.recycle()
	cb(pairs, err)
}

func (op *treeOp) fail(err error) {
	switch {
	case op.getCb != nil:
		op.got(nil, false, err)
	case op.putCb != nil:
		op.put(err)
	case op.delCb != nil:
		op.deleted(false, err)
	default:
		op.scanned(nil, err)
	}
}

func (op *treeOp) ReadDone(data []byte, err error) {
	if err != nil {
		op.fail(err)
		return
	}
	t := op.t
	switch op.stage {
	case stAnchor:
		op.path = op.pathBuf[:0]
		root, _ := anchorRoot(data)
		op.txStep(root, 0)
	case stNode:
		n := node{t: t, data: data}
		if op.key >= n.hi() {
			// Concurrent split: B-link right move (replace the path tail
			// with the right sibling).
			op.txStep(n.next(), op.depth)
			return
		}
		op.path = append(op.path, pathEntry{addr: op.addr, data: data})
		if n.isLeaf() {
			op.atLeaf(op.addr, data)
			return
		}
		op.txStep(n.child(n.childIndex(op.key)), op.depth+1)
	case stCachedAnchor, stCachedNode:
		// Committed bytes in the read's own buffer, valid until this
		// returns: cache a copy and walk on through the cache.
		op.c.fill(op.addr, data)
		if op.stage == stCachedAnchor {
			op.descend()
		} else {
			op.step(op.from, op.addr, op.height)
		}
	case stLeaf:
		n := node{t: t, data: data}
		switch {
		case n.height() == 0 && n.lo() <= op.key && op.key < n.hi():
			op.atLeaf(op.addr, data)
		case op.key >= n.hi() && op.tx.Wrote(op.addr):
			// These are the transaction's own buffered bytes: it split this
			// leaf, or wrote it after someone else did. The committed tree
			// the cache mirrors may not show the sibling: B-link right move.
			op.readLeaf(n.next())
		default:
			// Split since the entry that named it was cached. The dropped
			// entry is fetched afresh on the way down again, and the leaf
			// chain stays out of the read set.
			op.fenceMiss()
			op.restart()
		}
	case stScanLeaf:
		op.scanLeaf(data)
	}
}

// txDescend is the fully transactional descent from the anchor — every
// node on the path joins the read set — for a Put that must split its leaf
// and so update that path, and for an operation whose cache failed it.
func (op *treeOp) txDescend() {
	op.c.fallbacks++
	op.c.txReads++
	op.stage = stAnchor
	op.tx.ReadTo(op.t.anchor, anchorBytes, op)
}

func (op *treeOp) txStep(addr proto.Addr, depth int) {
	if depth > 64 {
		op.fail(errTooDeep)
		return
	}
	op.c.txReads++
	op.addr, op.depth, op.stage = addr, depth, stNode
	op.tx.ReadTo(addr, op.t.NodeBytes(), op)
}

// descend finds the leaf covering key: down the machine's cached internal
// nodes from the cached anchor, then one transactional read of the leaf,
// accepted by its fence keys. A cache that misled three times gives way to
// txDescend.
func (op *treeOp) descend() {
	t, c := op.t, op.c
	if op.attempt > 2 {
		op.txDescend()
		return
	}
	if a := c.nodes[t.anchor]; len(a) > 0 {
		c.hits++
		root, height := anchorRoot(a)
		op.step(t.anchor, root, height)
		return
	}
	c.miss++
	op.addr, op.stage = t.anchor, stCachedAnchor
	op.tx.Coordinator().LockFreeReadTo(op.tx.Thread(), t.anchor, anchorBytes, op)
}

func (op *treeOp) restart() {
	op.attempt++
	op.descend()
}

// fenceMiss notes that the node just reached does not cover key and drops
// the cache entry (anchor or parent) that named it for key: that entry
// predates a split, and would send every later descent the same way round.
func (op *treeOp) fenceMiss() {
	op.c.fenceMiss++
	op.c.drop(op.from)
}

// step walks down from the node at addr, height levels above the leaves and
// named by cache entry from, through cached internal nodes. The first
// uncached one is fetched with a lock-free read and cached; the leaf is
// read through the transaction.
func (op *treeOp) step(from, addr proto.Addr, height int) {
	c := op.c
	op.from = from
	for height > 0 {
		if op.hops++; op.hops > 64 {
			op.fail(errTooDeep)
			return
		}
		cached := c.nodes[addr]
		if len(cached) == 0 {
			c.miss++
			op.addr, op.height, op.stage = addr, height, stCachedNode
			op.tx.Coordinator().LockFreeReadTo(op.tx.Thread(), addr, op.t.NodeBytes(), op)
			return
		}
		c.hits++
		n := node{t: op.t, data: cached}
		switch {
		case n.height() != height || op.key < n.lo():
			op.fenceMiss()
			op.restart()
			return
		case op.key >= n.hi():
			op.fenceMiss()
			addr = n.next()
		default:
			op.from, addr, height = addr, n.child(n.childIndex(op.key)), height-1
		}
	}
	op.readLeaf(addr)
}

// readLeaf reads the node a cached descent takes for key's leaf.
func (op *treeOp) readLeaf(addr proto.Addr) {
	if op.hops++; op.hops > 64 {
		op.fail(errTooDeep)
		return
	}
	op.c.txReads++
	op.addr, op.stage = addr, stLeaf
	op.tx.ReadTo(addr, op.t.NodeBytes(), op)
}

func addrFromBytes(b []byte) proto.Addr {
	return proto.Addr{Region: binary.LittleEndian.Uint32(b), Off: binary.LittleEndian.Uint32(b[4:])}
}

// atLeaf does the operation's work at the leaf covering key.
func (op *treeOp) atLeaf(addr proto.Addr, data []byte) {
	t, n := op.t, node{t: op.t, data: data}
	switch {
	case op.getCb != nil:
		if i, found := n.leafIndex(op.key); found {
			op.got(owned(n.val(i)), true, nil)
		} else {
			op.got(nil, false, nil)
		}
	case op.putCb != nil:
		i, found := n.leafIndex(op.key)
		switch {
		case found:
			n.setVal(i, op.val)
		case n.nkeys() < t.order:
			n.leafInsertAt(i, op.key, op.val)
		case len(op.path) == 0:
			// Full, and reached through the cache: the split rewrites the
			// path above the leaf, which must be read to be written.
			op.txDescend()
			return
		default:
			op.splitLeaf()
			return
		}
		op.tx.Write(addr, n.data)
		op.put(nil)
	case op.delCb != nil:
		i, found := n.leafIndex(op.key)
		if found {
			n.leafRemoveAt(i)
			op.tx.Write(addr, n.data)
		}
		op.deleted(found, nil)
	default:
		op.scanLeaf(data)
	}
}

// scanLeaf collects a leaf's pairs from key on and moves to the next leaf
// until limit pairs are found or the leaves end.
func (op *treeOp) scanLeaf(data []byte) {
	n := node{t: op.t, data: data}
	for i := 0; i < n.nkeys() && op.found < op.limit; i++ {
		if n.key(i) >= op.key {
			op.out = append(op.out, Pair{Key: n.key(i), Val: owned(n.val(i))})
			op.found++
		}
	}
	next := n.next()
	if op.found >= op.limit || next == (proto.Addr{}) {
		op.scanned(op.out, nil)
		return
	}
	op.stage = stScanLeaf
	op.tx.ReadTo(next, op.t.NodeBytes(), op)
}

// owned caps a value cut from node bytes the operation owns, so the caller
// it is handed to can append to it without reaching the next slot.
func owned(v []byte) []byte { return v[:len(v):len(v)] }

// start begins op's descent through the cache of tx's machine. The leaf is
// the one node read transactionally, so the common case costs one read and
// one read-set entry; the leaf's version covers the key whether or not it
// is there.
func (op *treeOp) start() {
	op.c = op.t.cacheFor(op.tx.Coordinator().ID)
	op.c.descents++
	op.descend()
}

// Get looks key up within tx. val is the caller's to change, and valid until
// tx finishes (its Commit callback or Abort returns).
func (t *Tree) Get(tx *core.Tx, key uint64, cb func(val []byte, ok bool, err error)) {
	op := t.newOp(tx, key)
	op.getCb = cb
	op.start()
}

// Put inserts or updates key within tx, splitting full nodes along the
// path (all inside the transaction, so the structure change is atomic).
func (t *Tree) Put(tx *core.Tx, key uint64, val []byte, cb func(err error)) {
	if len(val) > t.maxVal {
		cb(fmt.Errorf("btree: value too long"))
		return
	}
	op := t.newOp(tx, key)
	op.val, op.putCb = val, cb
	op.start()
}

// splitLeaf splits the full leaf at the end of path, inserts the pair into
// the proper half and starts inserting the separator upward.
func (op *treeOp) splitLeaf() {
	t := op.t
	leafE := op.path[len(op.path)-1]
	left := node{t: t, data: leafE.data}

	right := op.newNode()
	right.setLeaf(true)
	mid := t.order / 2
	sep := left.key(mid)
	// Move upper half to right.
	for i := mid; i < left.nkeys(); i++ {
		right.setKey(i-mid, left.key(i))
		right.setVal(i-mid, left.val(i))
	}
	right.setNKeys(left.nkeys() - mid)
	left.setNKeys(mid)
	right.setLo(sep)
	right.setHi(left.hi())
	right.setNext(left.next())
	left.setHi(sep)

	// Insert the new pair into the proper half.
	half := right
	if op.key < sep {
		half = left
	}
	i, _ := half.leafIndex(op.key)
	half.leafInsertAt(i, op.key, op.val)

	op.allocSibling(left, leafE.addr, sep, right, len(op.path)-1)
}

// allocSibling allocates right — the new right sibling of the just split
// node left (path[up]), or the new root (left and right both) when up is -1
// — next to leftAddr. onAlloc continues once its address is known; it is
// bound when the op is first made and serves every level of every split.
func (op *treeOp) allocSibling(left node, leftAddr proto.Addr, sep uint64, right node, up int) {
	op.left, op.leftAddr, op.sep, op.up = left, leftAddr, sep, up
	op.tx.Alloc(len(right.data), right.data, &leftAddr, op.allocFn)
}

func (op *treeOp) onAlloc(addr proto.Addr, err error) {
	if err != nil {
		op.put(err)
		return
	}
	if op.up < 0 {
		// addr is the new root: point the anchor at it.
		var a [anchorBytes]byte // Write copies it
		putAnchor(a[:], addr, op.left.height())
		op.rewrite(op.t.anchor, a[:])
		op.put(nil)
		return
	}
	op.left.setNext(addr)
	op.rewrite(op.leftAddr, op.left.data)
	op.insertUp(addr)
}

// rewrite buffers a split's write of the anchor or a node and drops the
// machine's cached copy, which commit would leave stale.
func (op *treeOp) rewrite(addr proto.Addr, data []byte) {
	op.c.drop(addr)
	op.tx.Write(addr, data)
}

// insertUp adds (sep → right) to the parent of the node just split,
// path[up-1], splitting it in turn when it is full.
func (op *treeOp) insertUp(right proto.Addr) {
	t, sep := op.t, op.sep
	if op.up == 0 {
		// Root split: new root with two children.
		newRoot := op.newNode()
		newRoot.setHeight(op.left.height() + 1)
		newRoot.setHi(maxKey)
		newRoot.setNKeys(1)
		newRoot.setKey(0, sep)
		newRoot.setChild(0, op.leftAddr)
		newRoot.setChild(1, right)
		op.allocSibling(newRoot, op.leftAddr, 0, newRoot, -1)
		return
	}
	parentE := op.path[op.up-1]
	p := node{t: t, data: parentE.data}
	if p.nkeys() < t.order {
		p.innerInsertAt(p.childIndex(sep), sep, right)
		op.rewrite(parentE.addr, p.data)
		op.put(nil)
		return
	}
	// Split the internal node.
	rn := op.newNode()
	rn.setHeight(p.height())
	mid := t.order / 2
	upSep := p.key(mid)
	for i := mid + 1; i < p.nkeys(); i++ {
		rn.setKey(i-mid-1, p.key(i))
	}
	for i := mid + 1; i <= p.nkeys(); i++ {
		rn.setChild(i-mid-1, p.child(i))
	}
	rn.setNKeys(p.nkeys() - mid - 1)
	p.setNKeys(mid)
	rn.setLo(upSep)
	rn.setHi(p.hi())
	rn.setNext(p.next())
	p.setHi(upSep)

	if sep < upSep {
		p.innerInsertAt(p.childIndex(sep), sep, right)
	} else {
		rn.innerInsertAt(rn.childIndex(sep), sep, right)
	}
	op.allocSibling(p, parentE.addr, upSep, rn, op.up-1)
}

// Delete removes key within tx (lazy deletion: leaves may underflow but
// are never merged, which keeps fence keys stable).
func (t *Tree) Delete(tx *core.Tx, key uint64, cb func(ok bool, err error)) {
	op := t.newOp(tx, key)
	op.delCb = cb
	op.start()
}

// Pair is one key/value result of a Scan.
type Pair struct {
	Key uint64
	Val []byte
}

// Scan appends up to limit pairs with key >= from to dst, in key order
// (TPC-C's range queries), and passes cb the result, or nil with an error: a
// descent to from's leaf, then along the leaves, each read transactionally —
// no key can appear in the range without changing a leaf the transaction
// validates. The slice is the caller's, to keep and pass again (nil makes a
// new one); the pairs' values are the transaction's bytes, the caller's to
// change and valid until tx finishes.
func (t *Tree) Scan(tx *core.Tx, from uint64, limit int, dst []Pair, cb func(pairs []Pair, err error)) {
	op := t.newOp(tx, from)
	op.limit, op.out, op.scanCb = limit, dst, cb
	op.start()
}
