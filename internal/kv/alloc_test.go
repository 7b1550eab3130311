package kv

import (
	"bytes"
	"hash/fnv"
	"reflect"
	"testing"

	"farm/internal/core"
	"farm/internal/proto"
	"farm/internal/sim"
)

// localRig is a 9-machine cluster with a table whose buckets all live in one
// region, and that region's primary: operations issued from it read locally,
// so the counts below are the execute phase's own, with no fabric buffers.
type localRig struct {
	c    *core.Cluster
	m    *core.Machine
	t    *Table
	keys [][]byte
}

func newLocalRig(tb testing.TB, keys int) *localRig {
	tb.Helper()
	c := core.New(core.Options{NumMachines: 9, Seed: 9})
	regions, err := c.CreateRegions(0, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	m := c.Machine(c.Machine(0).PrimaryOf(regions[0]))
	r := &localRig{c: c, m: m}
	r.t = MustCreate(c, m, Config{Name: "local", Buckets: 4 * keys, Slots: 4, MaxKey: 8, MaxVal: 16, Regions: regions})
	for i := 0; i < keys; i++ {
		r.keys = append(r.keys, U64Key(uint64(i)))
		tx := m.Begin(0)
		r.t.Put(tx, r.keys[i], bytes.Repeat([]byte{byte(i)}, 16), func(err error) {
			if err != nil {
				tb.Fatal(err)
			}
		})
		r.run(func() bool { return tx.WriteSetSize() == 1 })
		r.commit(tb, tx)
	}
	return r
}

// run steps the simulation until pred holds.
func (r *localRig) run(pred func() bool) {
	for !pred() && r.c.Eng.Step() {
	}
}

func (r *localRig) commit(tb testing.TB, tx *core.Tx) {
	done := false
	tx.Commit(func(err error) {
		if err != nil {
			tb.Fatalf("commit: %v", err)
		}
		done = true
	})
	r.run(func() bool { return done })
}

// getPutLoop drives, within one transaction, a Get of every key and
// (optionally) a Put of what it returned. Its callbacks are made once, so
// AllocsPerRun counts only what kv and core allocate.
type getPutLoop struct {
	r     *localRig
	tx    *core.Tx
	put   bool
	i     int
	onGet func([]byte, bool, error)
	onPut func(error)
}

func newGetPutLoop(tb testing.TB, r *localRig) *getPutLoop {
	l := &getPutLoop{r: r}
	l.onGet = func(val []byte, ok bool, err error) {
		if err != nil || !ok || len(val) != 16 || val[0] != byte(l.i) {
			tb.Fatalf("get %d: %x %v %v", l.i, val, ok, err)
		}
		if l.put {
			val[1]++
			r.t.Put(l.tx, r.keys[l.i], val, l.onPut)
			return
		}
		l.onPut(nil)
	}
	l.onPut = func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
		if l.i++; l.i < len(r.keys) {
			r.t.Get(l.tx, r.keys[l.i], l.onGet)
		}
	}
	return l
}

func (l *getPutLoop) run(tx *core.Tx, put bool) {
	l.tx, l.put, l.i = tx, put, 0
	l.r.t.Get(tx, l.r.keys[0], l.onGet)
	l.r.run(func() bool { return l.i == len(l.r.keys) })
}

// TestGetPutAllocationBudget: a transactional Get that hits allocates
// nothing, and neither does a Put of the key just read: the ops come from
// the table's pool, each callback reuses the one just recycled, and the Tx
// comes from its machine's pool with the chunks and table an earlier
// transaction grew. A Get cost 0.50 while every Tx made its own (1.50 when
// every Get allocated its chainOp, 5.38 when it also allocated a hop
// closure, a bounce buffer, a read-set entry, the caller's copy and a value
// copy), and a Put 0.06 (1.06 with its own chainOp, 4.69 before).
func TestGetPutAllocationBudget(t *testing.T) {
	const keys = 16
	r := newLocalRig(t, keys)
	l := newGetPutLoop(t, r)
	measure := func(get, put bool) float64 {
		return testing.AllocsPerRun(100, func() {
			tx := r.m.Begin(0)
			if get {
				l.run(tx, put)
			}
			tx.Abort()
		})
	}
	measure(true, true) // warm the pools
	base, gets, both := measure(false, false), measure(true, false), measure(true, true)
	perGet, perPut := (gets-base)/keys, (both-gets)/keys
	t.Logf("kv.Get hit: %.2f allocs, kv.Put of the key just read: %.2f allocs (amortised over %d)", perGet, perPut, keys)
	if perGet > 0 {
		t.Errorf("kv.Get hit: %v allocs, want 0", perGet)
	}
	if perPut > 0 {
		t.Errorf("kv.Put of a key just read: %v allocs, want 0", perPut)
	}
}

// TestGetValueIsTheCallersAlone: a value Get hands out is a capacity-capped
// slice of bytes only the caller holds. Appending to or overwriting it
// changes neither the key's neighbour in the same bucket, nor a later Get
// of the same key in the same transaction, nor what a Put of another value
// commits — and it still reads the same, while its transaction is open,
// after a thousand later ones rewrote the row.
func TestGetValueIsTheCallersAlone(t *testing.T) {
	c := core.New(core.Options{NumMachines: 5, Seed: 9})
	regions, err := c.CreateRegions(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Machine(0)
	// One bucket: both keys share it.
	tbl := MustCreate(c, m, Config{Name: "alias", Buckets: 1, Slots: 4, MaxKey: 8, MaxVal: 16, Regions: regions})
	r := &localRig{c: c, m: m, t: tbl}
	k1, k2 := U64Key(1), U64Key(2)
	v1, v2 := bytes.Repeat([]byte{0x11}, 12), bytes.Repeat([]byte{0x22}, 12)
	get := func(tx *core.Tx, key []byte) []byte {
		var out []byte
		done := false
		tbl.Get(tx, key, func(val []byte, ok bool, err error) {
			if err != nil || !ok {
				t.Fatalf("get: %v %v", ok, err)
			}
			out, done = val, true
		})
		r.run(func() bool { return done })
		return out
	}
	put := func(tx *core.Tx, key, val []byte) {
		done := false
		tbl.Put(tx, key, val, func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			done = true
		})
		r.run(func() bool { return done })
	}
	tx := m.Begin(0)
	put(tx, k1, v1)
	put(tx, k2, v2)
	r.commit(t, tx)

	tx = m.Begin(0)
	a, b := get(tx, k1), get(tx, k2)
	if cap(a) != len(a) {
		t.Fatalf("value has cap %d for len %d", cap(a), len(a))
	}
	_ = append(a, bytes.Repeat([]byte{0xEE}, 40)...)
	for i := range a {
		a[i] = 0xEE
	}
	if !bytes.Equal(b, v2) {
		t.Fatal("scribbling on one value changed its bucket neighbour's")
	}
	if got := get(tx, k1); !bytes.Equal(got, v1) {
		t.Fatalf("a later Get returned the caller's scribble: %x", got)
	}
	w := bytes.Repeat([]byte{0x33}, 12)
	put(tx, k2, w)
	for i := range w {
		w[i] = 0xEE
	}
	r.commit(t, tx)
	holder := m.Begin(0)
	held := get(holder, k2)
	want := bytes.Repeat([]byte{0x33}, 12)
	if !bytes.Equal(held, want) {
		t.Fatalf("commit wrote %x, want the value passed to Put", held)
	}
	if got := get(m.Begin(0), k1); !bytes.Equal(got, v1) {
		t.Fatalf("a key only read changed: %x", got)
	}
	for i := 0; i < 1000; i++ {
		tx := m.Begin(0)
		put(tx, k2, bytes.Repeat([]byte{byte(i)}, 12))
		r.commit(t, tx)
	}
	c.RunFor(sim.Millisecond)
	if !bytes.Equal(held, want) {
		t.Fatalf("a value held in an open transaction changed: %x", held)
	}
	holder.Abort()
}

// TestHashIsFNV1a: bucket placement is part of every committed table's
// layout; the inlined hash must stay the FNV-1a it replaced.
func TestHashIsFNV1a(t *testing.T) {
	tbl := &Table{buckets: make([]proto.Addr, 1021)}
	rng := sim.NewRand(5)
	for i := 0; i < 2000; i++ {
		key := make([]byte, rng.Intn(17))
		for j := range key {
			key[j] = byte(rng.Intn(256))
		}
		h := fnv.New64a()
		h.Write(key)
		if want := int(h.Sum64() % 1021); tbl.hash(key) != want {
			t.Fatalf("hash(%x) = %d, want %d", key, tbl.hash(key), want)
		}
	}
}

func BenchmarkTxGet(b *testing.B) {
	r := newLocalRig(b, 16)
	l := newGetPutLoop(b, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(r.keys) {
		tx := r.m.Begin(0)
		l.run(tx, false)
		tx.Abort()
	}
}

func BenchmarkTxPut(b *testing.B) {
	r := newLocalRig(b, 16)
	l := newGetPutLoop(b, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(r.keys) {
		tx := r.m.Begin(0)
		l.run(tx, true)
		tx.Abort()
	}
}

// TestLockFreeGetAllocationBudget: a lock-free lookup allocates nothing: its
// chainOp comes from the table's pool, and the neighbourhood lands in the
// pooled read's own buffer, which the value it hands out is a slice of,
// valid until the callback returns. It cost one buffer for what it read (the
// caller's to keep) while reads made their own, and 2 allocations when each
// lookup also made its own chainOp.
func TestLockFreeGetAllocationBudget(t *testing.T) {
	const keys = 16
	r := newLocalRig(t, keys)
	i := 0
	var onGet func([]byte, bool, error)
	onGet = func(val []byte, ok bool, err error) {
		if err != nil || !ok || len(val) != 16 || val[0] != byte(i) {
			t.Fatalf("lock-free get %d: %x %v %v", i, val, ok, err)
		}
		if i++; i < keys {
			r.t.LockFreeGet(r.m, 0, r.keys[i], onGet)
		}
	}
	run := func() {
		i = 0
		r.t.LockFreeGet(r.m, 0, r.keys[0], onGet)
		r.run(func() bool { return i == keys })
	}
	run() // warm the pools
	per := testing.AllocsPerRun(100, run) / keys
	t.Logf("kv.LockFreeGet: %.2f allocs", per)
	if per > 0 {
		t.Errorf("kv.LockFreeGet: %v allocs, want 0", per)
	}
}

// TestPooledOpReusedFromItsCallback: an operation returns to its table's
// pool, reset whole but for its bound continuation and its (empty) key
// buffer, before its callback runs, so a Get whose callback Puts
// another key of the table hands the Put its own chainOp. The Get and the
// Put see, read, write and commit exactly what they do when the Put is issued
// from a fresh event instead.
func TestPooledOpReusedFromItsCallback(t *testing.T) {
	type outcome struct {
		val           []byte
		ok            bool
		putErr        error
		reads, writes int
		held, wrote   []proto.Addr
		committed     [2][]byte
	}
	run := func(fromCallback bool) outcome {
		r := newLocalRig(t, 4)
		var o outcome
		newKey, newVal := U64Key(1000), bytes.Repeat([]byte{0x5A}, 16)
		tx := r.m.Begin(0)
		done := false
		put := func() {
			r.t.Put(tx, newKey, newVal, func(err error) { o.putErr, done = err, true })
		}
		if r.t.ops.Len() == 0 {
			t.Fatal("setting up the table left no op in its pool")
		}
		pooled, inUse := r.t.ops.Get(), r.t.ops.InUse()-1 // the op the Get takes
		r.t.ops.Put(pooled)
		r.t.Get(tx, r.keys[1], func(val []byte, ok bool, err error) {
			if err != nil {
				t.Fatal(err)
			}
			o.val, o.ok = val, ok
			if r.t.ops.InUse() != inUse || !r.t.ops.Holds(pooled) {
				t.Fatal("the Get's op is not back in the pool when its callback runs")
			}
			if reset := *pooled; reset.allocFn == nil {
				t.Error("the recycled op lost its bound continuation")
			} else if len(reset.key) != 0 {
				t.Errorf("the recycled op still holds its key: %q", reset.key)
			} else if reset.allocFn, reset.key = nil, nil; !reflect.DeepEqual(reset, chainOp{t: r.t}) {
				t.Errorf("the recycled op still holds state: %+v", reset)
			}
			if !fromCallback {
				r.c.Eng.After(0, put)
				return
			}
			put()
			if r.t.ops.Holds(pooled) {
				t.Error("the Put did not take the op its Get just recycled")
			}
		})
		r.run(func() bool { return done })
		o.reads, o.writes = tx.ReadSetSize(), tx.WriteSetSize()
		for _, a := range r.t.buckets {
			if tx.Holds(a) {
				o.held = append(o.held, a)
			}
			if tx.Wrote(a) {
				o.wrote = append(o.wrote, a)
			}
		}
		r.commit(t, tx)
		for i, key := range [][]byte{r.keys[1], newKey} {
			got := false
			r.t.Get(r.m.Begin(0), key, func(val []byte, ok bool, err error) {
				if err != nil || !ok {
					t.Fatalf("get %x after commit: %v %v", key, ok, err)
				}
				o.committed[i], got = val, true
			})
			r.run(func() bool { return got })
		}
		return o
	}
	inCallback, fresh := run(true), run(false)
	if inCallback.putErr != nil || !inCallback.ok || len(inCallback.wrote) == 0 {
		t.Fatalf("the run did not do its work: %+v", inCallback)
	}
	if !reflect.DeepEqual(inCallback, fresh) {
		t.Fatalf("a Put issued from its Get's callback differs from one issued afresh:\n%+v\n%+v", inCallback, fresh)
	}
}
