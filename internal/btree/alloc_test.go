package btree

import (
	"bytes"
	"reflect"
	"testing"

	"farm/internal/core"
	"farm/internal/proto"
)

// localTree is a 9-machine cluster with a two-level tree (a root over
// several half-full leaves) in one region, and that region's primary:
// descents issued from it read locally.
type localTree struct {
	c *core.Cluster
	m *core.Machine
	t *Tree
}

const localTreeKeys = 40 // order 8: splits into a root over ~8 leaves

func newLocalTree(tb testing.TB) *localTree {
	tb.Helper()
	c := core.New(core.Options{NumMachines: 9, Seed: 13})
	regions, err := c.CreateRegions(0, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	m := c.Machine(c.Machine(0).PrimaryOf(regions[0]))
	r := &localTree{c: c, m: m}
	r.t = MustCreate(c, m, Config{Name: "local", Order: 8, MaxVal: 16, Region: regions[0]})
	for k := uint64(0); k < localTreeKeys; k++ {
		tx := m.Begin(0)
		r.put(tb, tx, 10*k, bytes.Repeat([]byte{byte(k)}, 16))
		r.commit(tb, tx)
	}
	// Depth 2: the anchor points at an internal root whose children are
	// leaves.
	tx := m.Begin(0)
	root := r.read(tb, tx, addrFromBytes(r.read(tb, tx, r.t.anchor, anchorBytes)), r.t.NodeBytes())
	rn := node{t: r.t, data: root}
	if rn.isLeaf() || !(node{t: r.t, data: r.read(tb, tx, rn.child(0), r.t.NodeBytes())}).isLeaf() {
		tb.Fatal("rig tree is not two levels deep")
	}
	tx.Abort()
	return r
}

func (r *localTree) run(pred func() bool) {
	for !pred() && r.c.Eng.Step() {
	}
}

func (r *localTree) read(tb testing.TB, tx *core.Tx, addr proto.Addr, size int) []byte {
	var out []byte
	tx.Read(addr, size, func(data []byte, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		out = data
	})
	r.run(func() bool { return out != nil })
	return out
}

func (r *localTree) put(tb testing.TB, tx *core.Tx, key uint64, val []byte) {
	done := false
	r.t.Put(tx, key, val, func(err error) {
		if err != nil {
			tb.Fatalf("put %d: %v", key, err)
		}
		done = true
	})
	r.run(func() bool { return done })
}

func (r *localTree) commit(tb testing.TB, tx *core.Tx) {
	done := false
	tx.Commit(func(err error) {
		if err != nil {
			tb.Fatalf("commit: %v", err)
		}
		done = true
	})
	r.run(func() bool { return done })
}

// TestPutAllocationBudget: inserting a new key into a leaf with room, two
// levels down and the root cached, allocates nothing — no closure per level,
// no path slice, no bounce buffers, no chunks for an anchor and a root the
// descent does not read, no treeOp (it comes from the package's pool), and no
// chunk for the leaf twice over (private copy and the op's own) and the
// buffered leaf write: the Tx and its chunks come from its machine's pools
// (23 allocations once, then 4, then 2 with its own treeOp, 1 while every
// Tx made its own chunk, 0 now).
func TestPutAllocationBudget(t *testing.T) {
	r := newLocalTree(t)
	val := bytes.Repeat([]byte{0xAB}, 16)
	done := false
	onPut := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}
	measure := func(put bool) float64 {
		return testing.AllocsPerRun(100, func() {
			tx := r.m.Begin(0)
			if put {
				done = false
				r.t.Put(tx, 205, val, onPut) // a new key; Abort leaves the leaf as it was
				r.run(func() bool { return done })
				if tx.ReadSetSize() != 1 || tx.WriteSetSize() != 1 {
					t.Fatalf("Put read %d objects and wrote %d, want the leaf alone", tx.ReadSetSize(), tx.WriteSetSize())
				}
			}
			tx.Abort()
		})
	}
	measure(true) // warms the machine's cache too
	base, withPut := measure(false), measure(true)
	t.Logf("btree.Put into a non-full leaf at depth 2: %.1f allocs", withPut-base)
	if n := withPut - base; n > 0 {
		t.Fatalf("btree.Put into a non-full leaf at depth 2: %v allocs, want 0", n)
	}
}

// fillLeaf commits keys 201, 202, ... into the leaf of key 200 from m until
// one more would split it, and returns that key.
func (r *localTree) fillLeaf(tb testing.TB, m *core.Machine) uint64 {
	tb.Helper()
	for k := uint64(201); k < 210; k++ {
		splits := r.t.DescentStats()[4]
		tx := m.Begin(0)
		r.put(tb, tx, k, bytes.Repeat([]byte{byte(k)}, 16))
		if r.t.DescentStats()[4] > splits {
			tx.Abort()
			return k
		}
		r.commit(tb, tx)
	}
	tb.Fatal("no insert split the leaf of key 200")
	return 0
}

// TestSplitPutAllocationBudget: a Put that splits a full leaf — the
// transactional descent, the new sibling built in the op's node buffer and
// allocated next to it, the leaf and parent rewritten, here the root split
// as well — allocates nothing, and neither does refilling the cache entry of
// the parent the split dropped, in the bytes the entry kept. It cost the new
// nodes' bytes and the cache's copy of the parent.
func TestSplitPutAllocationBudget(t *testing.T) {
	r := newLocalTree(t)
	key := r.fillLeaf(t, r.m)
	val := bytes.Repeat([]byte{0xAB}, 16)
	done := false
	onPut := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}
	split := func() {
		splits := r.t.DescentStats()[4]
		tx := r.m.Begin(0)
		done = false
		r.t.Put(tx, key, val, onPut)
		r.run(func() bool { return done })
		if r.t.DescentStats()[4] == splits || tx.WriteSetSize() < 3 {
			t.Fatalf("the Put wrote %d objects, want a split's leaf, sibling and parent at least", tx.WriteSetSize())
		}
		tx.Abort() // the tree stays as it was, but for the cache entry the split dropped
	}
	split()
	if per := testing.AllocsPerRun(100, split); per > 0 {
		t.Fatalf("a split Put: %v allocs, want 0", per)
	}
}

// TestFenceMissRefillAllocationBudget: a descent through a cached anchor and
// root that predate a split (here of the leaf and the root) reaches a leaf
// whose fences reject the key, drops the root's entry and fetches it again
// with a lock-free read, whose fences reject the key in turn: a dropped
// entry keeps its bytes, and its refill copies into them and allocates
// nothing. Each refill cost a copy of the node.
func TestFenceMissRefillAllocationBudget(t *testing.T) {
	r := newLocalTree(t)
	c := r.t.cacheFor(r.m.ID)
	staleAnchor := bytes.Clone(c.nodes[r.t.anchor])
	rootAddr, _ := anchorRoot(staleAnchor)
	stale := bytes.Clone(c.nodes[rootAddr])
	other := r.c.Machine((r.m.ID + 1) % len(r.c.Machines))
	tx := other.Begin(0)
	r.put(t, tx, r.fillLeaf(t, other), bytes.Repeat([]byte{0xCD}, 16)) // the split, committed
	r.commit(t, tx)
	// The first key of the split leaf's new sibling: the stale root still
	// sends it to the leaf.
	rn := node{t: r.t, data: stale}
	tx = r.m.Begin(0)
	key := node{t: r.t, data: r.read(t, tx, rn.child(rn.childIndex(200)), r.t.NodeBytes())}.hi()
	tx.Abort()
	found := false
	onGet := func(_ []byte, ok bool, err error) {
		if err != nil || !ok {
			t.Fatalf("Get %d: found %v, %v", key, ok, err)
		}
		found = true
	}
	get := func() {
		c.fill(r.t.anchor, staleAnchor) // the cache as it was before the split
		c.fill(rootAddr, stale)
		misses := r.t.DescentStats()[3]
		tx := r.m.Begin(0)
		found = false
		r.t.Get(tx, key, onGet)
		r.run(func() bool { return found })
		tx.Abort()
		if r.t.DescentStats()[3] == misses {
			t.Fatal("the stale root caused no fence miss")
		}
	}
	get()
	if per := testing.AllocsPerRun(100, get); per > 0 {
		t.Fatalf("a fence miss and its refill: %v allocs, want 0", per)
	}
}

// TestScanPairsAreTheCallersAlone: the values Scan hands out are capacity-
// capped slices of leaf copies only the caller holds: appending to one pair
// does not reach the next, and, while the transaction is open, they read the
// same after a thousand later ones rewrote the rows.
func TestScanPairsAreTheCallersAlone(t *testing.T) {
	r := newLocalTree(t)
	tx := r.m.Begin(0)
	var pairs []Pair
	r.t.Scan(tx, 0, 12, nil, func(p []Pair, err error) {
		if err != nil {
			t.Fatal(err)
		}
		pairs = p
	})
	r.run(func() bool { return pairs != nil })
	if len(pairs) != 12 {
		t.Fatalf("scan returned %d pairs", len(pairs))
	}
	want := make([][]byte, len(pairs))
	for i, p := range pairs {
		if p.Key != uint64(10*i) || cap(p.Val) != len(p.Val) {
			t.Fatalf("pair %d: key %d, cap %d for len %d", i, p.Key, cap(p.Val), len(p.Val))
		}
		want[i] = bytes.Clone(p.Val)
	}
	_ = append(pairs[0].Val, bytes.Repeat([]byte{0xEE}, 64)...)
	for i := 0; i < 1000; i++ {
		tx := r.m.Begin(0)
		r.put(t, tx, uint64(10*(i%12)), bytes.Repeat([]byte{byte(i)}, 16))
		r.commit(t, tx)
	}
	for i, p := range pairs {
		if !bytes.Equal(p.Val, want[i]) {
			t.Fatalf("pair %d changed in its open transaction: %x, want %x", i, p.Val, want[i])
		}
	}
	tx.Abort()
}

// TestCacheHoldsNoTransactionBytes: the internal-node cache keeps only bytes
// lock-free reads made for it. Splits fill and refresh it; a thousand later
// transactions — each Tx recycled, its chunks carved again — leave every
// entry as it was.
func TestCacheHoldsNoTransactionBytes(t *testing.T) {
	r := newLocalTree(t)
	for k := uint64(0); k < 40; k++ {
		tx := r.m.Begin(0)
		r.put(t, tx, 10*k+5, bytes.Repeat([]byte{0xC0}, 16)) // splits leaves
		r.commit(t, tx)
	}
	c := r.t.cacheFor(r.m.ID)
	snap := make(map[proto.Addr][]byte, len(c.nodes))
	for a, b := range c.nodes {
		if len(b) > 0 { // not dropped
			snap[a] = bytes.Clone(b)
		}
	}
	if len(snap) < 2 {
		t.Fatalf("%d cached nodes: nothing tested", len(snap))
	}
	for i := 0; i < 1000; i++ {
		tx := r.m.Begin(0)
		found := false
		r.t.Get(tx, uint64(10*(i%80)), func(_ []byte, ok bool, err error) {
			if err != nil {
				t.Fatal(err)
			}
			found = true
		})
		r.run(func() bool { return found })
		if i%2 == 0 {
			r.commit(t, tx)
		} else {
			tx.Abort()
		}
	}
	for a, b := range c.nodes {
		if want, ok := snap[a]; ok && !bytes.Equal(b, want) {
			t.Fatalf("cached node %v changed while no transaction wrote the tree", a)
		}
	}
}

// TestCacheKeepsItsBytesWhenLaterReadsLand: a lock-free read hands its
// handler the read's own pooled buffer, which later reads reuse, so the cache
// keeps a copy of what it fills from one. Lock-free reads of every leaf,
// issued at once from the machine whose cache it is, take every pooled read
// and land leaf bytes in their buffers; every cached entry stays as it was.
func TestCacheKeepsItsBytesWhenLaterReadsLand(t *testing.T) {
	r := newLocalTree(t)
	c := r.t.cacheFor(r.m.ID)
	a, ok := c.nodes[r.t.anchor]
	if !ok {
		t.Fatal("the anchor is not cached")
	}
	rootAddr, _ := anchorRoot(a)
	root, ok := c.nodes[rootAddr]
	if !ok {
		t.Fatal("the root is not cached")
	}
	snap := make(map[proto.Addr][]byte, len(c.nodes))
	for a, b := range c.nodes {
		snap[a] = bytes.Clone(b)
	}
	rn := node{t: r.t, data: root}
	landed := 0
	for i := 0; i <= rn.nkeys(); i++ {
		r.m.LockFreeRead(0, rn.child(i), r.t.NodeBytes(), func(data []byte, err error) {
			if err != nil || !(node{t: r.t, data: data}).isLeaf() {
				t.Fatalf("leaf read: %v", err)
			}
			landed++
		})
	}
	r.run(func() bool { return landed == rn.nkeys()+1 })
	for a, want := range snap {
		if !bytes.Equal(c.nodes[a], want) {
			t.Fatalf("cached node %v changed when lock-free reads of leaves landed", a)
		}
	}
}

func BenchmarkTreePut(b *testing.B) {
	r := newLocalTree(b)
	val := bytes.Repeat([]byte{0xAB}, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := r.m.Begin(0)
		r.put(b, tx, uint64(10*(i%localTreeKeys)), val) // an update: the tree keeps its shape
		r.commit(b, tx)
	}
}

// TestPooledOpReusedFromItsCallback: an operation returns to the package's
// pool, reset whole but for its node buffer and bound continuation, before
// its callback runs, so a Scan whose callback Gets hands
// the Get its own treeOp. The Scan and the Get see and read exactly what they
// do when the Get is issued from a fresh event instead.
func TestPooledOpReusedFromItsCallback(t *testing.T) {
	type outcome struct {
		pairs         []Pair
		val           []byte
		ok            bool
		reads, writes int
		held          []proto.Addr
	}
	run := func(fromCallback bool) outcome {
		r := newLocalTree(t)
		// The anchor, the root and its leaves.
		nodes := []proto.Addr{r.t.anchor}
		tx := r.m.Begin(0)
		rootAddr := addrFromBytes(r.read(t, tx, r.t.anchor, anchorBytes))
		root := node{t: r.t, data: r.read(t, tx, rootAddr, r.t.NodeBytes())}
		nodes = append(nodes, rootAddr)
		for i := 0; i <= root.nkeys(); i++ {
			nodes = append(nodes, root.child(i))
		}
		tx.Abort()

		var o outcome
		tx = r.m.Begin(0)
		done := false
		get := func() {
			r.t.Get(tx, 250, func(val []byte, ok bool, err error) {
				if err != nil {
					t.Fatal(err)
				}
				o.val, o.ok, done = val, ok, true
			})
		}
		if ops.Len() == 0 {
			t.Fatal("setting up the tree left no op in its pool")
		}
		pooled, inUse := ops.Get(), ops.InUse()-1 // the op the Scan takes
		ops.Put(pooled)
		r.t.Scan(tx, 100, 5, nil, func(pairs []Pair, err error) {
			if err != nil {
				t.Fatal(err)
			}
			o.pairs = pairs
			if ops.InUse() != inUse || !ops.Holds(pooled) {
				t.Fatal("the Scan's op is not back in the pool when its callback runs")
			}
			if reset := *pooled; reset.allocFn == nil {
				t.Error("the recycled op lost its bound continuation")
			} else if reset.allocFn, reset.buf = nil, nil; !reflect.DeepEqual(reset, treeOp{}) {
				t.Errorf("the recycled op still holds state: %+v", reset)
			}
			if !fromCallback {
				r.c.Eng.After(0, get)
				return
			}
			get()
			if ops.Holds(pooled) {
				t.Error("the Get did not take the op its Scan just recycled")
			}
		})
		r.run(func() bool { return done })
		o.reads, o.writes = tx.ReadSetSize(), tx.WriteSetSize()
		for _, a := range nodes {
			if tx.Holds(a) {
				o.held = append(o.held, a)
			}
		}
		tx.Abort()
		return o
	}
	inCallback, fresh := run(true), run(false)
	if len(inCallback.pairs) != 5 || !inCallback.ok || len(inCallback.held) == 0 {
		t.Fatalf("the run did not do its work: %+v", inCallback)
	}
	if !reflect.DeepEqual(inCallback, fresh) {
		t.Fatalf("a Get issued from its Scan's callback differs from one issued afresh:\n%+v\n%+v", inCallback, fresh)
	}
}
