// Package ycsb implements the key-value lookup workload of §6.3 ("Read
// performance"): 16-byte keys, 32-byte values, uniform access, lock-free
// reads against a FaRM hash table. The paper reports 790 M lookups/s on 90
// machines (23 µs median, 73 µs p99); the harness reproduces the
// per-machine shape on a scaled cluster.
package ycsb

import (
	"encoding/binary"
	"fmt"

	"farm/internal/core"
	"farm/internal/kv"
	"farm/internal/loadgen"
	"farm/internal/pool"
	"farm/internal/sim"
)

// Workload is a populated lookup table.
type Workload struct {
	C     *core.Cluster
	Table *kv.Table
	Keys  uint64

	lookups pool.Free[lookup] // LookupOp's pool
}

// Key produces the 16-byte key for id.
func Key(id uint64) []byte {
	k := make([]byte, 16)
	binary.LittleEndian.PutUint64(k, id)
	binary.LittleEndian.PutUint64(k[8:], id^0x5bd1e995)
	return k
}

// Setup creates and populates the table with n keys spread over `regions`
// fresh regions.
func Setup(c *core.Cluster, n uint64, regions int) (*Workload, error) {
	regionIDs, err := c.CreateRegions(0, regions, 0)
	if err != nil {
		return nil, err
	}
	table := kv.MustCreate(c, c.Machine(0), kv.Config{
		Name:    "ycsb",
		Buckets: int(n/3) + 1,
		Slots:   4,
		MaxKey:  16,
		MaxVal:  32,
		Regions: regionIDs,
	})
	w := &Workload{C: c, Table: table, Keys: n}
	w.lookups.New = func() *lookup {
		l := &lookup{w: w}
		l.gotFn = l.got
		return l
	}

	val := make([]byte, 32)
	const perTx = 16
	for base := uint64(0); base < n; base += perTx {
		base := base
		err := loadgen.RunSync(c, c.Machine(int(base)%len(c.Machines)), 0, func(tx *core.Tx, done func(error)) {
			var put func(i uint64)
			put = func(i uint64) {
				if i >= perTx || base+i >= n {
					done(nil)
					return
				}
				binary.LittleEndian.PutUint64(val, base+i)
				table.Put(tx, Key(base+i), val, func(err error) {
					if err != nil {
						done(err)
						return
					}
					put(i + 1)
				})
			}
			put(0)
		})
		if err != nil {
			return nil, fmt.Errorf("ycsb: populate at %d: %w", base, err)
		}
	}
	return w, nil
}

// LookupOp returns the uniform lock-free lookup operation.
func (w *Workload) LookupOp() loadgen.Op { return w.lookupOne }

// lookupOne is LookupOp's operation: a method, so its key stays on its
// stack wherever LookupOp is inlined (kv copies it).
func (w *Workload) lookupOne(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
	id := rng.Uint64n(w.Keys)
	l := w.lookups.Get()
	l.done = done
	w.Table.LockFreeGet(m, thread, Key(id), l.gotFn)
}

// lookup is one LookupOp's answer on its way to the caller: pooled, its
// callback bound once, and back in the pool before it reports.
type lookup struct {
	w     *Workload
	done  func(bool)
	gotFn func(val []byte, ok bool, err error)
}

func (l *lookup) got(_ []byte, ok bool, err error) {
	w, done := l.w, l.done
	l.done = nil
	w.lookups.Put(l)
	done(err == nil && ok)
}
