package btree

import (
	"fmt"
	"testing"

	"farm/internal/core"
)

// What one tree operation, alone in its transaction, cost: the objects it
// read and wrote through the transaction and the lock-free reads its
// machine's cache needed.
type opCost struct {
	reads, writes int
	lockFree      uint64
}

func (c opCost) String() string {
	return fmt.Sprintf("%d read, %d written, %d lock-free reads", c.reads, c.writes, c.lockFree)
}

// cost runs op in a transaction of machine mi, commits it unless abort is
// set, and reports what it cost.
func (r *rig) cost(t *testing.T, mi int, abort bool, op func(tx *core.Tx, done func(error))) opCost {
	t.Helper()
	_, miss := r.t.CacheStats(mi)
	var c opCost
	if err := r.run(t, mi, !abort, func(tx *core.Tx, done func(error)) {
		op(tx, func(err error) {
			c.reads, c.writes = tx.ReadSetSize(), tx.WriteSetSize()
			done(err)
		})
	}); err != nil {
		t.Fatal(err)
	}
	_, after := r.t.CacheStats(mi)
	c.lockFree = after - miss
	return c
}

func (r *rig) getOp(key uint64, want bool) func(*core.Tx, func(error)) {
	return func(tx *core.Tx, done func(error)) {
		r.t.Get(tx, key, func(_ []byte, ok bool, err error) {
			if err == nil && ok != want {
				err = fmt.Errorf("get %d: found=%v", key, ok)
			}
			done(err)
		})
	}
}

func (r *rig) putOp(key uint64, val string) func(*core.Tx, func(error)) {
	return func(tx *core.Tx, done func(error)) { r.t.Put(tx, key, []byte(val), done) }
}

func (r *rig) delOp(key uint64) func(*core.Tx, func(error)) {
	return func(tx *core.Tx, done func(error)) {
		r.t.Delete(tx, key, func(ok bool, err error) {
			if err == nil && !ok {
				err = fmt.Errorf("delete %d: not found", key)
			}
			done(err)
		})
	}
}

func (r *rig) scanOp(from uint64, limit int, want ...uint64) func(*core.Tx, func(error)) {
	return func(tx *core.Tx, done func(error)) {
		r.t.Scan(tx, from, limit, nil, func(pairs []Pair, err error) {
			if err == nil && len(pairs) != len(want) {
				err = fmt.Errorf("scan from %d: %d pairs, want %d", from, len(pairs), len(want))
			}
			for i := 0; err == nil && i < len(want); i++ {
				if pairs[i].Key != want[i] {
					err = fmt.Errorf("scan from %d: pair %d is %d, want %d", from, i, pairs[i].Key, want[i])
				}
			}
			done(err)
		})
	}
}

// depth reads the committed anchor: levels from the root to the leaves.
func (r *rig) depth(t *testing.T) int {
	t.Helper()
	var d int
	if err := r.do(t, 0, func(tx *core.Tx, done func(error)) {
		tx.Read(r.t.anchor, anchorBytes, func(a []byte, err error) {
			if err == nil {
				_, h := anchorRoot(a)
				d = h + 1
			}
			done(err)
		})
	}); err != nil {
		t.Fatal(err)
	}
	return d
}

// ascending builds an order-4 tree of keys 0, 10, … 10(n-1) from machine 0.
// Ascending inserts leave two keys in every leaf but the last.
func ascending(t *testing.T, n, wantDepth int) *rig {
	t.Helper()
	r := newRig(t, 4)
	for k := 0; k < n; k++ {
		r.put(t, 0, uint64(10*k), "v")
	}
	if d := r.depth(t); d != wantDepth {
		t.Fatalf("%d ascending keys make a tree %d deep, want %d", n, d, wantDepth)
	}
	return r
}

// TestWarmOperationReadsOneObject: once a machine has the internal nodes
// above a key cached, every operation on that key reads its leaf and
// nothing else — no anchor, no internal node, no second copy of the leaf —
// however deep the tree, and writes at most that leaf.
func TestWarmOperationReadsOneObject(t *testing.T) {
	for _, tc := range []struct{ keys, depth int }{{3, 1}, {12, 2}, {30, 3}} {
		r := ascending(t, tc.keys, tc.depth)
		key := uint64(10 * (tc.keys / 2))
		r.get(t, 1, key) // warm machine 1's cache along key's path
		for _, step := range []struct {
			name   string
			op     func(*core.Tx, func(error))
			writes int
		}{
			{"Get", r.getOp(key, true), 0},
			{"Get of an absent key", r.getOp(key+1, false), 0},
			{"Put over a key", r.putOp(key, "w"), 1},
			{"Delete", r.delOp(key), 1},
			{"Put of a new key", r.putOp(key, "x"), 1},
			{"Delete of an absent key", func(tx *core.Tx, done func(error)) {
				r.t.Delete(tx, key+1, func(_ bool, err error) { done(err) })
			}, 0},
			{"Scan within the leaf", r.scanOp(key, 1, key), 0},
		} {
			want := opCost{reads: 1, writes: step.writes}
			if got := r.cost(t, 1, false, step.op); got != want {
				t.Errorf("depth %d, warm %s: %v, want %v", tc.depth, step.name, got, want)
			}
		}
		// Nobody was ever misled: the builder dropped what its splits
		// rewrote, and machine 1 cached the finished tree.
		if misses := r.t.DescentStats()[3]; misses != 0 {
			t.Errorf("depth %d: %d fence misses", tc.depth, misses)
		}
	}
}

// TestSplitIsOneTransaction: a Put into a full leaf re-reads the path above
// it transactionally and writes leaf, new sibling and parent together.
// Aborted, it leaves the tree as it was and the machine's cache usable.
func TestSplitIsOneTransaction(t *testing.T) {
	// Keys 0…50: a root over leaves [0 10] and [20 30 40 50], the last full.
	r := ascending(t, 6, 2)
	r.get(t, 1, 50)
	split := opCost{reads: 3, writes: 3} // leaf, anchor, root; leaf, sibling, root
	if got := r.cost(t, 1, true, r.putOp(60, "v")); got != split {
		t.Fatalf("splitting Put, aborted: %v, want %v", got, split)
	}
	if _, ok := r.get(t, 2, 60); ok {
		t.Fatal("the aborted Put's key is in the tree")
	}
	// The aborted split dropped the root from machine 1's cache: one
	// lock-free read brings it back.
	if got, want := r.cost(t, 1, false, r.getOp(50, true)), (opCost{reads: 1, lockFree: 1}); got != want {
		t.Fatalf("Get after the aborted split: %v, want %v", got, want)
	}
	if got := r.cost(t, 1, false, r.putOp(60, "v")); got != split {
		t.Fatalf("splitting Put: %v, want %v", got, split)
	}
	want := []uint64{0, 10, 20, 30, 40, 50, 60}
	for mi := 0; mi < 3; mi++ {
		if err := r.do(t, mi, r.scanOp(0, 10, want...)); err != nil {
			t.Fatalf("machine %d: %v", mi, err)
		}
	}
	// Machine 1 fetches the root it rewrote once more and is warm again.
	r.get(t, 1, 60)
	if got, want := r.cost(t, 1, false, r.getOp(60, true)), (opCost{reads: 1}); got != want {
		t.Fatalf("Get after the split: %v, want %v", got, want)
	}
}

// TestAscendingPutsInOneTransaction is the new-order pattern: one
// transaction appends a run of keys, crossing leaves it has itself split —
// and not committed — by their right-links, through leaf splits alone, a
// split of a root leaf and a split of an internal root.
func TestAscendingPutsInOneTransaction(t *testing.T) {
	for _, tc := range []struct{ keys, depth, puts, depthAfter int }{
		{6, 2, 3, 2},   // two leaf splits under a root with room
		{3, 1, 2, 2},   // the root leaf splits
		{6, 2, 10, 3},  // the root over the leaves fills up and splits
		{3, 1, 10, 3},  // both, one after the other
		{20, 3, 10, 3}, // splits two levels below the root
	} {
		r := ascending(t, tc.keys, tc.depth)
		want := make([]uint64, 0, tc.keys+tc.puts)
		for k := 0; k < tc.keys; k++ {
			want = append(want, uint64(10*k))
		}
		r.get(t, 1, want[tc.keys-1])
		if err := r.do(t, 1, func(tx *core.Tx, done func(error)) {
			var put func(i int)
			put = func(i int) {
				if i == tc.puts {
					// The transaction sees all of its own run.
					r.scanOp(0, 100, want...)(tx, done)
					return
				}
				key := uint64(10*tc.keys + i)
				want = append(want, key)
				r.t.Put(tx, key, []byte("new"), func(err error) {
					if err != nil {
						done(err)
						return
					}
					put(i + 1)
				})
			}
			put(0)
		}); err != nil {
			t.Fatalf("%d keys + %d: %v", tc.keys, tc.puts, err)
		}
		if d := r.depth(t); d != tc.depthAfter {
			t.Errorf("%d keys + %d: tree %d deep, want %d", tc.keys, tc.puts, d, tc.depthAfter)
		}
		for mi := 0; mi < 3; mi++ {
			if err := r.do(t, mi, r.scanOp(0, 100, want...)); err != nil {
				t.Errorf("%d keys + %d, machine %d: %v", tc.keys, tc.puts, mi, err)
			}
			for _, k := range want {
				if _, ok := r.get(t, mi, k); !ok {
					t.Errorf("%d keys + %d, machine %d: key %d lost", tc.keys, tc.puts, mi, k)
				}
			}
		}
	}
}

// TestStaleCacheEntriesAreDropped: a cache entry that sends a descent to a
// node whose fences reject the key is dropped, so the detour is paid once
// and not by every later operation of that machine.
func TestStaleCacheEntriesAreDropped(t *testing.T) {
	ops := []struct {
		name   string
		writes int
		op     func(r *rig, key uint64) func(*core.Tx, func(error))
	}{
		{"Get", 0, func(r *rig, key uint64) func(*core.Tx, func(error)) { return r.getOp(key, true) }},
		{"Put", 1, func(r *rig, key uint64) func(*core.Tx, func(error)) { return r.putOp(key, "w") }},
		{"Scan", 0, func(r *rig, key uint64) func(*core.Tx, func(error)) { return r.scanOp(key, 1, key) }},
	}

	// One leaf splits under a parent machine 1 has cached: the first
	// operation on a key that moved reads the old leaf, drops the parent,
	// fetches it again and reads the new leaf; the second is warm.
	for _, o := range ops {
		r := ascending(t, 6, 2)
		r.get(t, 1, 50)
		r.put(t, 0, 60, "v") // [20 30 40 50] → [20 30] [40 50 60]
		warm := opCost{reads: 1, writes: o.writes}
		if got, want := r.cost(t, 1, false, o.op(r, 50)), (opCost{reads: 2, writes: o.writes, lockFree: 1}); got != want {
			t.Errorf("first %s after one split elsewhere: %v, want %v", o.name, got, want)
		}
		if got := r.cost(t, 1, false, o.op(r, 50)); got != warm {
			t.Errorf("second %s after one split elsewhere: %v, want %v", o.name, got, warm)
		}
	}

	// Machine 1 caches a three-level tree whole; machine 0 then appends
	// until the tree is a level taller. Every entry machine 1 holds on the
	// rightmost path — anchor, old root, parent — is stale now. Each
	// operation drops at least one of them; none walks the leaf chain, and
	// soon the path is warm again, for good.
	for _, o := range ops {
		r := ascending(t, 30, 3)
		for k := 0; k < 30; k++ {
			r.get(t, 1, uint64(10*k))
		}
		before := r.t.DescentStats()[4]
		for k := 30; k < 80; k++ {
			r.put(t, 0, uint64(10*k), "v")
		}
		if after := r.t.DescentStats()[4]; after-before < 20 || r.depth(t) != 4 {
			t.Fatalf("%d leaf splits, depth %d: want 20 or more and a root split", after-before, r.depth(t))
		}
		const key = 790
		warm := opCost{reads: 1, writes: o.writes}
		settled := -1
		for i := 0; i < 8; i++ {
			got := r.cost(t, 1, false, o.op(r, key))
			t.Logf("%s %d: %v", o.name, i+1, got)
			if got.reads > 2 {
				t.Errorf("%s %d of a moved key read %d objects: it walked the leaves", o.name, i+1, got.reads)
			}
			switch {
			case got == warm && settled < 0:
				settled = i
			case got != warm && settled >= 0:
				t.Errorf("%s %d of a moved key: %v after the path was warm", o.name, i+1, got)
			}
		}
		// One operation per stale level — anchor, old root, parent — at
		// most, and the one after is warm.
		if settled < 0 || settled > 3 {
			t.Errorf("%s of a moved key: warm from operation %d on, want 4 at the latest", o.name, settled+1)
		}
	}
}
