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
	"farm/internal/sim"
)

// Workload is a populated lookup table.
type Workload struct {
	C     *core.Cluster
	Table *kv.Table
	Keys  uint64

	free []*lookup // LookupOp's pool
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

	val := make([]byte, 32)
	const perTx = 16
	for base := uint64(0); base < n; base += perTx {
		base := base
		err := syncTx(c, c.Machine(int(base)%len(c.Machines)), func(tx *core.Tx, done func(error)) {
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

// syncTx drives one transaction to completion.
func syncTx(c *core.Cluster, m *core.Machine, fn func(tx *core.Tx, done func(error))) error {
	finished := false
	var result error
	tx := m.Begin(0)
	fn(tx, func(err error) {
		if err != nil {
			finished, result = true, err
			return
		}
		tx.Commit(func(err error) { finished, result = true, err })
	})
	deadline := c.Eng.Now() + 10*sim.Second
	for !finished && c.Eng.Now() < deadline {
		if !c.Eng.Step() {
			break
		}
	}
	if !finished {
		return core.ErrUnavailable
	}
	return result
}

// LookupOp returns the uniform lock-free lookup operation.
func (w *Workload) LookupOp() loadgen.Op { return w.lookupOne }

// lookupOne is LookupOp's operation: a method, so its key stays on its
// stack wherever LookupOp is inlined (kv copies it).
func (w *Workload) lookupOne(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
	id := rng.Uint64n(w.Keys)
	var l *lookup
	if k := len(w.free); k > 0 {
		l = w.free[k-1]
		w.free = w.free[:k-1]
	} else {
		l = &lookup{w: w}
		l.gotFn = l.got
	}
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
	w.free = append(w.free, l)
	done(err == nil && ok)
}
