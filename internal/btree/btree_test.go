package btree

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"farm/internal/core"
	"farm/internal/sim"
)

type rig struct {
	c *core.Cluster
	t *Tree
}

func newRig(t *testing.T, order int) *rig {
	t.Helper()
	c := core.New(core.Options{NumMachines: 5, Seed: 13})
	regions, err := c.CreateRegions(0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree := MustCreate(c, c.Machine(0), Config{Name: "idx", Order: order, MaxVal: 16, Region: regions[0]})
	return &rig{c: c, t: tree}
}

// do runs fn in a transaction of machine mi and commits it.
func (r *rig) do(t *testing.T, mi int, fn func(tx *core.Tx, done func(error))) error {
	t.Helper()
	return r.run(t, mi, true, fn)
}

func (r *rig) run(t *testing.T, mi int, commit bool, fn func(tx *core.Tx, done func(error))) error {
	t.Helper()
	finished := false
	var result error
	tx := r.c.Machine(mi).Begin(0)
	fn(tx, func(err error) {
		switch {
		case err != nil:
			finished, result = true, err
		case commit:
			tx.Commit(func(err error) { finished, result = true, err })
		default:
			tx.Abort()
			finished = true
		}
	})
	deadline := r.c.Eng.Now() + 5*sim.Second
	for !finished && r.c.Eng.Now() < deadline {
		if !r.c.Eng.Step() {
			break
		}
	}
	if !finished {
		t.Fatal("btree op stalled")
	}
	return result
}

func (r *rig) put(t *testing.T, mi int, key uint64, val string) {
	t.Helper()
	if err := r.do(t, mi, func(tx *core.Tx, done func(error)) {
		r.t.Put(tx, key, []byte(val), done)
	}); err != nil {
		t.Fatalf("put %d: %v", key, err)
	}
}

func (r *rig) get(t *testing.T, mi int, key uint64) (string, bool) {
	t.Helper()
	var out string
	var found bool
	if err := r.do(t, mi, func(tx *core.Tx, done func(error)) {
		r.t.Get(tx, key, func(val []byte, ok bool, err error) {
			out, found = string(val), ok
			done(err)
		})
	}); err != nil {
		t.Fatalf("get %d: %v", key, err)
	}
	return out, found
}

func (r *rig) del(t *testing.T, mi int, key uint64) bool {
	t.Helper()
	var found bool
	if err := r.do(t, mi, func(tx *core.Tx, done func(error)) {
		r.t.Delete(tx, key, func(ok bool, err error) {
			found = ok
			done(err)
		})
	}); err != nil {
		t.Fatalf("delete %d: %v", key, err)
	}
	return found
}

func (r *rig) scan(t *testing.T, mi int, from uint64, limit int) []Pair {
	t.Helper()
	var out []Pair
	if err := r.do(t, mi, func(tx *core.Tx, done func(error)) {
		r.t.Scan(tx, from, limit, nil, func(pairs []Pair, err error) {
			out = pairs
			done(err)
		})
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

func TestPutGetSingleLeaf(t *testing.T) {
	r := newRig(t, 8)
	r.put(t, 0, 42, "answer")
	if v, ok := r.get(t, 1, 42); !ok || v != "answer" {
		t.Fatalf("get: %q %v", v, ok)
	}
	if _, ok := r.get(t, 2, 43); ok {
		t.Fatal("phantom key")
	}
	r.put(t, 3, 42, "updated")
	if v, _ := r.get(t, 4, 42); v != "updated" {
		t.Fatalf("update: %q", v)
	}
}

func TestSplitsAndOrderedScan(t *testing.T) {
	r := newRig(t, 4) // small order → many splits
	const n = 100
	perm := sim.NewRand(3).Perm(n)
	for _, k := range perm {
		r.put(t, k%5, uint64(k)*2, fmt.Sprintf("v%d", k))
	}
	// All present.
	for k := 0; k < n; k++ {
		if v, ok := r.get(t, k%5, uint64(k)*2); !ok || v != fmt.Sprintf("v%d", k) {
			t.Fatalf("key %d: %q %v", k*2, v, ok)
		}
	}
	// Scan must return keys in order.
	pairs := r.scan(t, 1, 0, n)
	if len(pairs) != n {
		t.Fatalf("scan returned %d, want %d", len(pairs), n)
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Key <= pairs[i-1].Key {
			t.Fatalf("scan unordered at %d: %d <= %d", i, pairs[i].Key, pairs[i-1].Key)
		}
	}
	// Partial scan from the middle.
	mid := r.scan(t, 2, 100, 10)
	if len(mid) != 10 || mid[0].Key < 100 {
		t.Fatalf("mid scan: %v", mid)
	}
}

func TestDelete(t *testing.T) {
	r := newRig(t, 4)
	for k := uint64(0); k < 30; k++ {
		r.put(t, 0, k, "x")
	}
	err := r.do(t, 1, func(tx *core.Tx, done func(error)) {
		r.t.Delete(tx, 15, func(ok bool, err error) {
			if !ok {
				t.Error("delete missed")
			}
			done(err)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.get(t, 2, 15); ok {
		t.Fatal("key survived delete")
	}
	if _, ok := r.get(t, 2, 16); !ok {
		t.Fatal("neighbour key lost")
	}
}

func TestCacheHitsAndStalenessSafety(t *testing.T) {
	r := newRig(t, 4)
	for k := uint64(0); k < 64; k++ {
		r.put(t, 0, k, fmt.Sprintf("v%d", k))
	}
	// Warm machine 1's cache.
	for k := uint64(0); k < 64; k += 8 {
		r.get(t, 1, k)
	}
	h0, m0 := r.t.CacheStats(1)
	// Repeat lookups: cache hits must grow much faster than misses.
	for k := uint64(0); k < 64; k++ {
		r.get(t, 1, k)
	}
	h1, m1 := r.t.CacheStats(1)
	if h1-h0 < 64 {
		t.Fatalf("cache barely used: hits %d→%d misses %d→%d", h0, h1, m0, m1)
	}
	// Now force splits from another machine (stale cache at machine 1)
	// and confirm machine 1 still reads correctly through fence checks.
	for k := uint64(1000); k < 1100; k++ {
		r.put(t, 2, k, "zzz")
	}
	for k := uint64(0); k < 64; k++ {
		if v, ok := r.get(t, 1, k); !ok || v != fmt.Sprintf("v%d", k) {
			t.Fatalf("stale-cache read of %d: %q %v", k, v, ok)
		}
	}
	for k := uint64(1000); k < 1100; k += 7 {
		if v, ok := r.get(t, 1, k); !ok || v != "zzz" {
			t.Fatalf("new key %d via stale cache: %q %v", k, v, ok)
		}
	}
	// More splits elsewhere, then the stale machine writes, deletes and
	// scans through what it has cached.
	for k := uint64(2000); k < 2100; k++ {
		r.put(t, 3, k, "yyy")
	}
	for k := uint64(2000); k < 2100; k += 3 {
		r.put(t, 1, k, "mine")
	}
	for k := uint64(2001); k < 2100; k += 3 {
		if !r.del(t, 1, k) {
			t.Fatalf("delete of %d via stale cache missed", k)
		}
	}
	r.put(t, 1, 3000, "new") // beyond everything machine 1 has seen
	pairs := r.scan(t, 1, 2000, 200)
	if len(pairs) != 34+33+1 {
		t.Fatalf("scan via stale cache: %d pairs, want 68", len(pairs))
	}
	for i, p := range pairs[:67] {
		want, val := uint64(2000+3*(i/2)+2*(i%2)), "mine"
		if i%2 == 1 {
			val = "yyy"
		}
		if p.Key != want || string(p.Val) != val {
			t.Fatalf("scan via stale cache, pair %d: %d=%q, want %d=%q", i, p.Key, p.Val, want, val)
		}
	}
	if pairs[67].Key != 3000 {
		t.Fatalf("scan via stale cache ends at %d", pairs[67].Key)
	}
}

func TestConcurrentInsertersConflictCleanly(t *testing.T) {
	r := newRig(t, 4)
	done := 0
	conflicts := 0
	for mi := 1; mi <= 3; mi++ {
		mi := mi
		var drive func(k uint64)
		drive = func(k uint64) {
			if k >= 30 {
				done++
				return
			}
			tx := r.c.Machine(mi).Begin(0)
			r.t.Put(tx, uint64(mi)*1000+k, []byte("c"), func(err error) {
				if err != nil {
					conflicts++
					r.c.Eng.After(20*sim.Microsecond, func() { drive(k) })
					return
				}
				tx.Commit(func(err error) {
					if err != nil {
						conflicts++
						r.c.Eng.After(sim.Time(r.c.Eng.Rand().Intn(30)+1)*sim.Microsecond, func() { drive(k) })
						return
					}
					drive(k + 1)
				})
			})
		}
		drive(0)
	}
	deadline := r.c.Eng.Now() + 10*sim.Second
	for done < 3 && r.c.Eng.Now() < deadline {
		if !r.c.Eng.Step() {
			break
		}
	}
	if done < 3 {
		t.Fatalf("inserters stalled (done=%d conflicts=%d)", done, conflicts)
	}
	for mi := 1; mi <= 3; mi++ {
		for k := uint64(0); k < 30; k++ {
			if _, ok := r.get(t, 0, uint64(mi)*1000+k); !ok {
				t.Fatalf("lost key %d", uint64(mi)*1000+k)
			}
		}
	}
	t.Logf("concurrent insert conflicts retried: %d", conflicts)
}

func TestQuickSortedMapEquivalence(t *testing.T) {
	f := func(keys []uint16) bool {
		if len(keys) > 80 {
			keys = keys[:80]
		}
		// Three machines take turns, each through its own cache, which the
		// other two keep making stale.
		r := newRig(t, 5)
		model := map[uint64]string{}
		for i, k := range keys {
			key, mi := uint64(k%500), 1+i%3
			if _, ok := model[key]; ok && k%3 == 0 {
				if !r.del(t, mi, key) {
					return false
				}
				delete(model, key)
				continue
			}
			val := fmt.Sprintf("v%d", i)
			r.put(t, mi, key, val)
			model[key] = val
		}
		var want []uint64
		for k := range model {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for mi := 1; mi <= 3; mi++ {
			// Everything retrievable, and nothing deleted is.
			for i, k := range want {
				if got, ok := r.get(t, 1+(mi+i)%3, k); !ok || got != model[k] {
					return false
				}
			}
			for _, k := range keys {
				if _, ok := model[uint64(k%500)]; !ok {
					if _, found := r.get(t, mi, uint64(k%500)); found {
						return false
					}
				}
			}
			// Scan equals sorted model keys.
			pairs := r.scan(t, mi, 0, len(model)+5)
			if len(pairs) != len(want) {
				return false
			}
			for i := range want {
				if pairs[i].Key != want[i] || string(pairs[i].Val) != model[want[i]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeSurvivesMachineFailure(t *testing.T) {
	// Insert under load, kill a machine holding tree nodes, and verify
	// structure and contents after recovery.
	c := core.New(core.Options{NumMachines: 5, Seed: 101, LeaseDuration: 5 * sim.Millisecond})
	regions, err := c.CreateRegions(0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree := MustCreate(c, c.Machine(0), Config{Name: "failidx", Order: 4, MaxVal: 8, Region: regions[0]})
	r := &rig{c: c, t: tree}

	for k := uint64(0); k < 40; k++ {
		r.put(t, int(k)%5, k, fmt.Sprintf("v%d", k))
	}
	c.RunFor(20 * sim.Millisecond)

	// Kill a replica holder of the tree's region (not the CM).
	rm := c.Machine(0).PrimaryOf(regions[0])
	victim := rm
	if victim == 0 {
		victim = (victim + 1) % 5
	}
	c.Kill(victim)
	c.RunFor(400 * sim.Millisecond)

	// All keys still present, via machines other than the victim.
	reader := 0
	for reader == victim {
		reader++
	}
	for k := uint64(0); k < 40; k++ {
		if v, ok := r.get(t, reader, k); !ok || v != fmt.Sprintf("v%d", k) {
			t.Fatalf("key %d after failure: %q %v", k, v, ok)
		}
	}
	// Inserts keep working (splits included).
	for k := uint64(100); k < 130; k++ {
		r.put(t, reader, k, "post")
	}
	pairs := r.scan(t, reader, 0, 100)
	if len(pairs) != 70 {
		t.Fatalf("scan after failure+inserts: %d pairs", len(pairs))
	}
}
