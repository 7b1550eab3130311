package kv

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"farm/internal/core"
	"farm/internal/fabric"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/sim"
)

// The tests below hold the table to its neighbourhood layout: a key lives in
// its home bucket, in a neighbour the home's hop bits name, or in the home's
// chain, and one span read fetches the home and its neighbours.

// hoodRig is a 5-machine cluster with a table of 2-slot buckets, all in one
// region, so that bucket j's neighbours are j+1..j+3, hashing keys with the
// given Config.GroupBits. reader is a machine other than the primary: its
// lookups are one-sided reads.
type hoodRig struct {
	rig
	prim, reader int
}

func newHoodRig(t *testing.T, buckets, groupBits int) *hoodRig {
	t.Helper()
	c := core.New(core.Options{NumMachines: 5, Seed: 9})
	regions, err := c.CreateRegions(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	prim := c.Machine(0).PrimaryOf(regions[0])
	table := MustCreate(c, c.Machine(prim), Config{
		Name: "hood", Buckets: buckets, Slots: 2, MaxKey: 16, MaxVal: 32, GroupBits: groupBits, Regions: regions,
	})
	for j := range table.adj {
		if want := min(buckets-1-j, hood-1); int(table.adj[j]) != want {
			t.Fatalf("bucket %d has %d adjacent buckets, want %d", j, table.adj[j], want)
		}
	}
	return &hoodRig{rig: rig{c: c, t: table}, prim: prim, reader: (prim + 1) % 5}
}

// keysOf returns n keys whose home is bucket home, skipping the first skip.
func keysOf(t *Table, home, skip, n int) []string {
	var out []string
	for i := 0; len(out) < skip+n; i++ {
		if k := fmt.Sprintf("key-%d", i); t.hash([]byte(k)) == home {
			out = append(out, k)
		}
	}
	return out[skip:]
}

func (r *hoodRig) mustPut(t *testing.T, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if err := r.put(t, r.prim, k, "v-"+k); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
}

// lockFreeGet runs a LockFreeGet from machine mi to completion.
func (r *hoodRig) lockFreeGet(t *testing.T, mi int, key string) (string, bool) {
	t.Helper()
	var out string
	var found, done bool
	r.t.LockFreeGet(r.c.Machine(mi), 0, []byte(key), func(val []byte, ok bool, err error) {
		if err != nil {
			t.Fatalf("lock-free get %s: %v", key, err)
		}
		out, found, done = string(val), ok, true
	})
	r.runUntil(t, func() bool { return done })
	return out, found
}

// txGet runs a Get of key inside tx to completion.
func (r *hoodRig) txGet(t *testing.T, tx *core.Tx, key string) (string, bool) {
	t.Helper()
	var out string
	var found, done bool
	r.t.Get(tx, []byte(key), func(val []byte, ok bool, err error) {
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		out, found, done = string(val), ok, true
	})
	r.runUntil(t, func() bool { return done })
	return out, found
}

func (r *hoodRig) runUntil(t *testing.T, pred func() bool) {
	t.Helper()
	deadline := r.c.Eng.Now() + sim.Second
	for !pred() && r.c.Eng.Now() < deadline && r.c.Eng.Step() {
	}
	if !pred() {
		t.Fatal("kv op stalled")
	}
}

// bucketAt reads bucket j's committed bytes.
func (r *hoodRig) bucketAt(t *testing.T, j int) bucket {
	t.Helper()
	var data []byte
	r.c.Machine(r.reader).LockFreeRead(0, r.t.buckets[j], r.t.BucketBytes(), func(b []byte, err error) {
		if err != nil {
			t.Fatalf("read bucket %d: %v", j, err)
		}
		data = bytes.Clone(b) // b is valid until this returns
	})
	r.runUntil(t, func() bool { return data != nil })
	return bucket{t: r.t, data: data}
}

func (r *hoodRig) reads() uint64 { return r.c.Net.Counters.Get("rdma_read") }

// TestLookupIsOneRead: with home 0 full and one of its keys in neighbour 1, a
// lookup that hits the home, one that hits the neighbour and one that misses
// each cost one one-sided read, inside a transaction or outside one.
func TestLookupIsOneRead(t *testing.T) {
	r := newHoodRig(t, 8, 0)
	k := keysOf(r.t, 0, 0, 4)
	r.mustPut(t, k[0], k[1], k[2])
	if hops := r.bucketAt(t, 0).hops(); hops != 1<<1 {
		t.Fatalf("home's hop bits %04b, want neighbour 1 only", hops)
	}
	counters := r.c.Counters
	for _, c := range []struct {
		key   string
		found bool
		cell  string
	}{{k[0], true, "kv_found_home"}, {k[2], true, "kv_found_hood"}, {k[3], false, "kv_missed"}} {
		r0, n0 := r.reads(), counters.Get(c.cell)
		if v, ok := r.lockFreeGet(t, r.reader, c.key); ok != c.found || (ok && v != "v-"+c.key) {
			t.Fatalf("lock-free get %s: %q %v", c.key, v, ok)
		}
		if n := r.reads() - r0; n != 1 {
			t.Errorf("lock-free get %s: %d one-sided reads, want 1", c.key, n)
		}
		tx := r.c.Machine(r.reader).Begin(0)
		r1 := r.reads()
		if v, ok := r.txGet(t, tx, c.key); ok != c.found || (ok && v != "v-"+c.key) {
			t.Fatalf("get %s: %q %v", c.key, v, ok)
		}
		if n := r.reads() - r1; n != 1 {
			t.Errorf("get %s: %d one-sided reads, want 1", c.key, n)
		}
		tx.Abort()
		if n := counters.Get(c.cell) - n0; n != 2 {
			t.Errorf("%s moved by %d for two lookups of %s", c.cell, n, c.key)
		}
	}
}

// TestFullNeighbourhoodChains: a home whose neighbourhood is full chains the
// next key, which costs a lookup a second read; deleting a neighbour's last
// key of the home clears its hop bit, and deleting one of two does not.
func TestFullNeighbourhoodChains(t *testing.T) {
	r := newHoodRig(t, 4, 0)
	k := keysOf(r.t, 0, 0, 9)
	r.mustPut(t, k...)
	home := r.bucketAt(t, 0)
	if home.hops() != 0b1110 || home.next() == zeroAddr {
		t.Fatalf("home: hop bits %04b, chain %v; want all three neighbours and a chain", home.hops(), home.next())
	}
	for d := 0; d < hood; d++ {
		if b := r.bucketAt(t, d); b.freeSlot() >= 0 {
			t.Fatalf("bucket %d has a free slot after 9 keys of home 0", d)
		}
	}
	r0, c0 := r.reads(), r.c.Counters.Get("kv_found_chain")
	if v, ok := r.lockFreeGet(t, r.reader, k[8]); !ok || v != "v-"+k[8] {
		t.Fatalf("chained key: %q %v", v, ok)
	}
	if n := r.reads() - r0; n != 2 || r.c.Counters.Get("kv_found_chain") != c0+1 {
		t.Fatalf("chained key: %d reads, kv_found_chain +%d; want 2 and +1", n, r.c.Counters.Get("kv_found_chain")-c0)
	}
	del := func(key string) {
		t.Helper()
		err := r.do(t, r.reader, func(tx *core.Tx, done func(error)) {
			r.t.Delete(tx, []byte(key), func(ok bool, err error) {
				if !ok && err == nil {
					t.Errorf("delete %s missed", key)
				}
				done(err)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Keys 6 and 7 went to neighbour 3, keys 4 and 5 to neighbour 2.
	del(k[7])
	if hops := r.bucketAt(t, 0).hops(); hops != 0b1110 {
		t.Fatalf("hop bits %04b after deleting one of neighbour 3's two keys, want 1110", hops)
	}
	del(k[6])
	if hops := r.bucketAt(t, 0).hops(); hops != 0b0110 {
		t.Fatalf("hop bits %04b after emptying neighbour 3, want 0110", hops)
	}
	for _, key := range k[:6] {
		if v, ok := r.lockFreeGet(t, r.reader, key); !ok || v != "v-"+key {
			t.Fatalf("%s after deletes: %q %v", key, v, ok)
		}
	}
	if _, ok := r.lockFreeGet(t, r.reader, k[6]); ok {
		t.Fatal("deleted key still found")
	}
}

// TestSpanReadWaitsOnlyForWhatItNeeds: while a writer holds neighbour 1
// locked, a lock-free hit in the home is answered at once, and a hit whose
// holder is neighbour 1 is retried until the writer commits.
func TestSpanReadWaitsOnlyForWhatItNeeds(t *testing.T) {
	r := newHoodRig(t, 8, 0)
	k, j := keysOf(r.t, 0, 0, 3), keysOf(r.t, 1, 0, 1)
	r.mustPut(t, k[0], k[1], k[2], j[0]) // neighbour 1 holds k[2] and its own j[0]
	writer := (r.prim + 2) % 5
	r.c.RunFor(20 * sim.Millisecond)

	tx := r.c.Machine(writer).Begin(0)
	put := false
	r.t.Put(tx, []byte(j[0]), []byte("new"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		put = true
	})
	r.runUntil(t, func() bool { return put })
	// The primary's LOCK-REPLY to the writer is slow, so its lock on bucket 1
	// is held for a while.
	r.c.Net.SetLinkFault(fabric.MachineID(r.prim), fabric.MachineID(writer), fabric.LinkFault{Delay: sim.Fixed(60 * sim.Microsecond)})
	committed := false
	tx.Commit(func(err error) {
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		committed = true
	})
	r.c.RunFor(30 * sim.Microsecond)

	retries := func() uint64 { return r.c.Counters.Get("span_lock_retries") }
	r0 := retries()
	if v, ok := r.lockFreeGet(t, r.reader, k[0]); !ok || v != "v-"+k[0] {
		t.Fatalf("home hit: %q %v", v, ok)
	}
	if committed || retries() != r0 {
		t.Fatalf("home hit: writer committed %v, %d span retries; want it answered under the lock", committed, retries()-r0)
	}
	if v, ok := r.lockFreeGet(t, r.reader, k[2]); !ok || v != "v-"+k[2] {
		t.Fatalf("neighbour hit: %q %v", v, ok)
	}
	if retries() == r0 {
		t.Fatal("a hit whose holder was locked was not retried")
	}
	r.runUntil(t, func() bool { return committed })
	if v, ok := r.lockFreeGet(t, r.reader, j[0]); !ok || v != "new" {
		t.Fatalf("written key: %q %v", v, ok)
	}
}

// TestGetReadSet: a read-only Get keeps exactly the home and the bucket
// holding the key on a hit, and the home and its flagged neighbours on a
// miss; a Put of the key just read costs no read.
func TestGetReadSet(t *testing.T) {
	r := newHoodRig(t, 8, 0)
	k := keysOf(r.t, 0, 0, 6)
	r.mustPut(t, k[:5]...) // home 0 and neighbour 1 full, k[4] in neighbour 2
	m := r.c.Machine(r.reader)
	for _, c := range []struct {
		key  string
		want []int // buckets in the read set
	}{{k[0], []int{0}}, {k[2], []int{0, 1}}, {k[4], []int{0, 2}}, {k[5], []int{0, 1, 2}}} {
		tx := m.Begin(0)
		r.txGet(t, tx, c.key)
		if tx.ReadSetSize() != len(c.want) {
			t.Errorf("get %s: read set of %d, want buckets %v", c.key, tx.ReadSetSize(), c.want)
		}
		for _, j := range c.want {
			if !tx.Holds(r.t.buckets[j]) {
				t.Errorf("get %s: bucket %d not in the read set", c.key, j)
			}
		}
		tx.Abort()
	}
	for _, key := range []string{k[0], k[2], k[4]} {
		err := r.do(t, r.reader, func(tx *core.Tx, done func(error)) {
			r.t.Get(tx, []byte(key), func(_ []byte, ok bool, err error) {
				if err != nil || !ok {
					done(fmt.Errorf("get %s: %v %v", key, ok, err))
					return
				}
				r0 := r.reads()
				r.t.Put(tx, []byte(key), []byte("put-"+key), func(err error) {
					if n := r.reads() - r0; n != 0 {
						t.Errorf("put %s after its get: %d reads, want 0", key, n)
					}
					done(err)
				})
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := r.lockFreeGet(t, r.reader, key); !ok || v != "put-"+key {
			t.Fatalf("%s after put: %q %v", key, v, ok)
		}
	}
}

// TestGroupedKeysShareAHome: a table with GroupBits 5 gives every key of a
// group — keys differing only in their low five bits — one home, and still
// spreads the groups over the buckets; a table without GroupBits hashes every
// key whole, as 64-bit FNV-1a of its bytes. (A prime bucket count: FNV modulo
// a power of two sees only the low bits of every byte.) A transaction's
// lookups of three keys of one group cost one one-sided read, also when the
// third spilled into a neighbour: a grouped Get keeps the home's flagged
// neighbours.
func TestGroupedKeysShareAHome(t *testing.T) {
	const buckets = 61
	c := core.New(core.Options{NumMachines: 5, Seed: 9})
	regions, err := c.CreateRegions(0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Name: "whole", Buckets: buckets, Slots: 4, MaxKey: 16, MaxVal: 32, Regions: regions}
	whole := MustCreate(c, c.Machine(0), cfg)
	cfg.Name, cfg.GroupBits = "grouped", 5
	grouped := MustCreate(c, c.Machine(0), cfg)
	key := func(g, low uint64) []byte { return U64Key(g<<5 | low) }
	homes := map[int]bool{}
	for g := uint64(0); g < buckets; g++ {
		home := grouped.hash(key(g, 0))
		homes[home] = true
		for low := uint64(0); low < 32; low++ {
			k := key(g, low)
			if h := grouped.hash(k); h != home {
				t.Fatalf("group %d: key %d hashes to %d, key 0 to %d", g, low, h, home)
			}
			for _, k := range [][]byte{k, []byte(fmt.Sprintf("key-%d-%d", g, low))} {
				f := fnv.New64a()
				f.Write(k)
				if h, want := whole.hash(k), int(f.Sum64()%buckets); h != want {
					t.Fatalf("ungrouped table hashes %q to %d, FNV-1a to %d", k, h, want)
				}
			}
		}
	}
	if len(homes) < buckets/2 {
		t.Fatalf("%d groups have only %d homes", buckets, len(homes))
	}

	r := newHoodRig(t, 8, 5)
	g := uint64(0)
	for r.t.hash(key(g, 0)) > 4 { // a home with three neighbours
		g++
	}
	rows := []string{string(key(g, 0)), string(key(g, 8)), string(key(g, 16))}
	r.mustPut(t, rows...) // two 2-slot buckets: the third row goes to neighbour 1
	tx := r.c.Machine(r.reader).Begin(0)
	r0, hood0 := r.reads(), r.c.Counters.Get("kv_found_hood")
	for _, k := range rows {
		if v, ok := r.txGet(t, tx, k); !ok || v != "v-"+k {
			t.Fatalf("get %x: %q %v", k, v, ok)
		}
	}
	if n, hood := r.reads()-r0, r.c.Counters.Get("kv_found_hood")-hood0; n != 1 || hood != 1 {
		t.Fatalf("three lookups of one group: %d one-sided reads, %d answered in a neighbour; want 1 and 1", n, hood)
	}
	tx.Abort()
}

// checkHops holds every home's hop bits to the buckets' contents: bit d is
// set exactly when neighbour d holds a key of that home.
func (r *hoodRig) checkHops(t *testing.T) {
	t.Helper()
	b := make([]bucket, len(r.t.buckets))
	for j := range b {
		b[j] = r.bucketAt(t, j)
	}
	for j := range b {
		for d := 1; d <= int(r.t.adj[j]); d++ {
			if set, holds := b[j].hops()&(1<<d) != 0, b[j+d].holdsKeyOf(j); set != holds {
				t.Fatalf("bucket %d: hop bit %d is %v, neighbour holds a key of it %v", j, d, set, holds)
			}
		}
	}
}

// TestModelCheckedNeighbourhoods: random Puts and Deletes from random
// machines over tables of three and four buckets, so that neighbours and
// chains both fill and drain. After every commit a lock-free Get and a
// transactional Get of every key agree with a map, and every home's hop bits
// name exactly the neighbours holding its keys. The grouped tables give
// eight keys each of two homes, so that clumped keys spill into neighbours
// and the chain.
func TestModelCheckedNeighbourhoods(t *testing.T) {
	const keys, steps = 16, 100
	for _, groupBits := range []int{0, 3} {
		name := func(i int) string { return fmt.Sprintf("k%d", i) }
		if groupBits > 0 {
			name = func(i int) string { return string(U64Key(uint64(i))) }
		}
		var hood, chain uint64 // lookups answered in a neighbour, in the chain
		for seed := uint64(1); seed <= 10; seed++ {
			rng := sim.NewRand(seed)
			r := newHoodRig(t, 3+int(seed%2), groupBits)
			model := map[string]string{}
			for step := 0; step < steps; step++ {
				key := name(rng.Intn(keys))
				mi := rng.Intn(5)
				if rng.Intn(3) > 0 {
					val := fmt.Sprintf("v%d.%d", seed, step)
					if err := r.put(t, mi, key, val); err != nil {
						t.Fatalf("group bits %d seed %d step %d: put %q: %v", groupBits, seed, step, key, err)
					}
					model[key] = val
				} else {
					_, want := model[key]
					err := r.do(t, mi, func(tx *core.Tx, done func(error)) {
						r.t.Delete(tx, []byte(key), func(ok bool, err error) {
							if err == nil && ok != want {
								err = fmt.Errorf("delete found %v, model has it %v", ok, want)
							}
							done(err)
						})
					})
					if err != nil {
						t.Fatalf("group bits %d seed %d step %d: delete %q: %v", groupBits, seed, step, key, err)
					}
					delete(model, key)
				}
				for i := 0; i < keys; i++ {
					key := name(i)
					want, inModel := model[key]
					if v, ok := r.lockFreeGet(t, rng.Intn(5), key); ok != inModel || v != want {
						t.Fatalf("group bits %d seed %d step %d: lock-free get %q = %q %v, model %q %v", groupBits, seed, step, key, v, ok, want, inModel)
					}
					if v, ok := r.get(t, rng.Intn(5), key); ok != inModel || v != want {
						t.Fatalf("group bits %d seed %d step %d: get %q = %q %v, model %q %v", groupBits, seed, step, key, v, ok, want, inModel)
					}
				}
				r.checkHops(t)
			}
			hood += r.c.Counters.Get("kv_found_hood")
			chain += r.c.Counters.Get("kv_found_chain")
		}
		if hood == 0 || chain == 0 {
			t.Fatalf("group bits %d: %d lookups answered in a neighbour, %d in a chain; want both", groupBits, hood, chain)
		}
		t.Logf("group bits %d: %d lookups answered in a neighbour, %d in a chain", groupBits, hood, chain)
	}
}

// TestAdjacencyAcrossRegions: buckets spread round-robin over three regions
// have as neighbours the buckets that follow them in their own region's
// memory, a slot apart.
func TestAdjacencyAcrossRegions(t *testing.T) {
	r := newRig(t, 16, 4)
	stride := uint32(regionmem.SlotSize(r.t.BucketBytes()))
	for j, a := range r.t.buckets {
		for d := 1; d <= int(r.t.adj[j]); d++ {
			if b := r.t.buckets[j+3*d]; b != (proto.Addr{Region: a.Region, Off: a.Off + uint32(d)*stride}) {
				t.Fatalf("bucket %d's neighbour %d is %v, not adjacent to %v", j, d, b, a)
			}
		}
	}
	if r.t.adj[0] != hood-1 {
		t.Fatalf("bucket 0 has %d adjacent buckets, want %d", r.t.adj[0], hood-1)
	}
}
