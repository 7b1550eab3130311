// Package tatp implements the Telecommunication Application Transaction
// Processing benchmark (§6.2–§6.3) on the FaRM API: four tables stored as
// FaRM hash tables, the standard seven-transaction mix, lock-free reads
// for the 70% of operations that are single-row lookups, read validation
// for the 10% that read 2–4 rows, the full commit protocol for the 20%
// updates, and — as in the paper — function shipping of single-field
// updates to the primary of the row.
//
// The database is deliberately NOT partitioned ("TATP is partitionable but
// we have not partitioned it, so most operations access data on remote
// machines", §6.2).
package tatp

import (
	"encoding/binary"
	"fmt"

	"farm/internal/core"
	"farm/internal/kv"
	"farm/internal/loadgen"
	"farm/internal/sim"
)

// Row sizes (bytes).
const (
	subscriberRow = 40 // bit/hex/byte2 fields + locations
	accessInfoRow = 16
	specialFacRow = 12
	callFwdRow    = 16
)

// Workload holds the populated database.
type Workload struct {
	C *core.Cluster
	N uint64 // subscribers

	Subscriber *kv.Table
	AccessInfo *kv.Table
	SpecialFac *kv.Table
	CallFwd    *kv.Table

	// FunctionShipped counts UPDATE_LOCATION operations executed at the
	// row's primary instead of through a distributed commit.
	FunctionShipped uint64
}

// Composite keys.
func aiKey(s uint64, ai int) []byte { return kv.U64Key(s<<2 | uint64(ai-1)) }
func sfKey(s uint64, sf int) []byte { return kv.U64Key(s<<2 | uint64(sf-1)) }

// cfStartBits is the width of a call-forwarding key's start-time field, its
// low bits: the up-to-three rows of one facility differ only there, so the
// table gives them one home (kv.Config.GroupBits) and GET_NEW_DESTINATION
// reads them with one neighbourhood read.
const cfStartBits = 5

func cfKey(s uint64, sf, start int) []byte {
	return kv.U64Key(s<<(cfStartBits+2) | uint64(sf-1)<<cfStartBits | uint64(start))
}

// Setup creates the tables over `regions` fresh regions and populates n
// subscribers. Population follows the TATP generator: every subscriber has
// 1–4 access-info rows, 1–4 special facilities, and 0–3 call forwardings
// per facility, chosen pseudo-randomly.
func Setup(c *core.Cluster, n uint64, regions int) (*Workload, error) {
	regionIDs, err := c.CreateRegions(0, regions, 0)
	if err != nil {
		return nil, err
	}
	w := &Workload{C: c, N: n}
	w.Subscriber = kv.MustCreate(c, c.Machine(0), kv.Config{
		Name: "subscriber", Buckets: int(n/3) + 1, Slots: 4, MaxKey: 8, MaxVal: subscriberRow, Regions: regionIDs,
	})
	w.AccessInfo = kv.MustCreate(c, c.Machine(0), kv.Config{
		Name: "access_info", Buckets: int(n) + 1, Slots: 4, MaxKey: 8, MaxVal: accessInfoRow, Regions: regionIDs,
	})
	w.SpecialFac = kv.MustCreate(c, c.Machine(0), kv.Config{
		Name: "special_facility", Buckets: int(n) + 1, Slots: 4, MaxKey: 8, MaxVal: specialFacRow, Regions: regionIDs,
	})
	w.CallFwd = kv.MustCreate(c, c.Machine(0), kv.Config{
		Name: "call_forwarding", Buckets: int(n) + 1, Slots: 4, MaxKey: 8, MaxVal: callFwdRow,
		GroupBits: cfStartBits, Regions: regionIDs,
	})

	rng := sim.NewRand(c.Opts.Seed * 77)
	const perTx = 8
	for base := uint64(0); base < n; base += perTx {
		base := base
		err := loadgen.RunSync(c, c.Machine(int(base)%len(c.Machines)), 0, func(tx *core.Tx, done func(error)) {
			var popSub func(i uint64)
			popSub = func(i uint64) {
				s := base + i
				if i >= perTx || s >= n {
					done(nil)
					return
				}
				steps := w.populateOne(tx, rng, s)
				runSteps(steps, func(err error) {
					if err != nil {
						done(err)
						return
					}
					popSub(i + 1)
				})
			}
			popSub(0)
		})
		if err != nil {
			return nil, fmt.Errorf("tatp: populate at %d: %w", base, err)
		}
	}
	w.installHandlers()
	return w, nil
}

// step is a population action; runSteps chains them.
type step func(next func(error))

func runSteps(steps []step, done func(error)) {
	var run func(i int)
	run = func(i int) {
		if i == len(steps) {
			done(nil)
			return
		}
		steps[i](func(err error) {
			if err != nil {
				done(err)
				return
			}
			run(i + 1)
		})
	}
	run(0)
}

func (w *Workload) populateOne(tx *core.Tx, rng *sim.Rand, s uint64) []step {
	var steps []step
	put := func(t *kv.Table, key, val []byte) {
		steps = append(steps, func(next func(error)) { t.Put(tx, key, val, next) })
	}
	put(w.Subscriber, kv.U64Key(s), subscriberValue(s, uint32(s%1000), uint32(s%997)))
	nAI := rng.Intn(4) + 1
	for ai := 1; ai <= nAI; ai++ {
		row := make([]byte, accessInfoRow)
		binary.LittleEndian.PutUint64(row, s)
		row[8] = byte(ai)
		put(w.AccessInfo, aiKey(s, ai), row)
	}
	nSF := rng.Intn(4) + 1
	for sf := 1; sf <= nSF; sf++ {
		row := make([]byte, specialFacRow)
		binary.LittleEndian.PutUint64(row, s)
		row[8] = byte(sf)
		if rng.Bool(0.85) {
			row[9] = 1 // is_active
		}
		put(w.SpecialFac, sfKey(s, sf), row)
		nCF := rng.Intn(4)
		for k := 0; k < nCF; k++ {
			start := []int{0, 8, 16}[k%3]
			row := make([]byte, callFwdRow)
			binary.LittleEndian.PutUint64(row, s)
			row[8] = byte(sf)
			row[9] = byte(start)
			row[10] = byte(start + 8)
			put(w.CallFwd, cfKey(s, sf, start), row)
		}
	}
	return steps
}

func subscriberValue(s uint64, msc, vlr uint32) []byte {
	row := make([]byte, subscriberRow)
	binary.LittleEndian.PutUint64(row, s)
	binary.LittleEndian.PutUint32(row[28:], msc)
	binary.LittleEndian.PutUint32(row[32:], vlr)
	return row
}

// --- Function shipping (UPDATE_LOCATION, §6.2) ---

// shipUpdateLocation is an UPDATE_LOCATION shipped to the row's primary on
// core's watched call path; the answer is whether it committed.
type shipUpdateLocation struct {
	S   uint64
	VLR uint32
}

func (w *Workload) installHandlers() {
	for _, m := range w.C.Machines {
		m := m
		m.SetAppHandler(func(_ int, req interface{}, call core.AppCall) {
			if v, ok := req.(*shipUpdateLocation); ok {
				w.execUpdateLocation(m, v, func(ok bool) { call.Reply(ok) })
			}
		})
	}
}

// execUpdateLocation runs the single-field update as a local transaction
// at (ideally) the row's primary.
func (w *Workload) execUpdateLocation(m *core.Machine, req *shipUpdateLocation, done func(bool)) {
	tx := m.Begin(int(req.S) % m.Threads())
	w.Subscriber.Get(tx, kv.U64Key(req.S), func(val []byte, ok bool, err error) {
		if err != nil || !ok {
			done(false)
			return
		}
		binary.LittleEndian.PutUint32(val[32:], req.VLR)
		w.Subscriber.Put(tx, kv.U64Key(req.S), val, func(err error) {
			if err != nil {
				done(false)
				return
			}
			tx.Commit(func(err error) { done(err == nil) })
		})
	})
}

// --- The seven TATP transactions ---

// Mix returns the standard TATP operation with the standard percentages:
// 35 GET_SUBSCRIBER_DATA, 10 GET_NEW_DESTINATION, 35 GET_ACCESS_DATA,
// 2 UPDATE_SUBSCRIBER_DATA, 14 UPDATE_LOCATION, 2 INSERT_CALL_FORWARDING,
// 2 DELETE_CALL_FORWARDING.
func (w *Workload) Mix() loadgen.Op {
	return func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
		s := rng.Uint64n(w.N)
		switch p := rng.Intn(100); {
		case p < 35:
			w.GetSubscriberData(m, thread, s, done)
		case p < 45:
			w.GetNewDestination(m, thread, s, rng, done)
		case p < 80:
			w.GetAccessData(m, thread, s, rng, done)
		case p < 82:
			w.UpdateSubscriberData(m, thread, s, rng, done)
		case p < 96:
			w.UpdateLocation(m, thread, s, rng, done)
		case p < 98:
			w.InsertCallForwarding(m, thread, s, rng, done)
		default:
			w.DeleteCallForwarding(m, thread, s, rng, done)
		}
	}
}

// GetSubscriberData is a single-row lookup using a lock-free read (70% of
// TATP together with GetAccessData; usually one RDMA read, no commit
// phase).
func (w *Workload) GetSubscriberData(m *core.Machine, thread int, s uint64, done func(bool)) {
	w.Subscriber.LockFreeGet(m, thread, kv.U64Key(s), func(_ []byte, ok bool, err error) {
		done(err == nil && ok)
	})
}

// GetAccessData is the other single-row lock-free lookup; a miss (the
// access-info row does not exist) still counts as a completed transaction.
func (w *Workload) GetAccessData(m *core.Machine, thread int, s uint64, rng *sim.Rand, done func(bool)) {
	ai := rng.Intn(4) + 1
	w.AccessInfo.LockFreeGet(m, thread, aiKey(s, ai), func(_ []byte, _ bool, err error) {
		done(err == nil)
	})
}

// GetNewDestination reads a special facility and its call-forwarding rows
// (2–4 rows) and needs validation at commit (§6.2).
func (w *Workload) GetNewDestination(m *core.Machine, thread int, s uint64, rng *sim.Rand, done func(bool)) {
	w.getNewDestination(m, thread, s, rng.Intn(4)+1, done)
}

// getNewDestination is GET_NEW_DESTINATION of facility sf.
func (w *Workload) getNewDestination(m *core.Machine, thread int, s uint64, sf int, done func(bool)) {
	tx := m.Begin(thread)
	w.SpecialFac.Get(tx, sfKey(s, sf), func(val []byte, ok bool, err error) {
		if err != nil {
			done(false)
			return
		}
		if !ok || val[9] == 0 {
			tx.Commit(func(err error) { done(err == nil) })
			return
		}
		starts := []int{0, 8, 16}
		var read func(i int)
		read = func(i int) {
			if i == len(starts) {
				tx.Commit(func(err error) { done(err == nil) })
				return
			}
			w.CallFwd.Get(tx, cfKey(s, sf, starts[i]), func(_ []byte, _ bool, err error) {
				if err != nil {
					done(false)
					return
				}
				read(i + 1)
			})
		}
		read(0)
	})
}

// UpdateSubscriberData updates one subscriber bit and one special-facility
// field in a single distributed transaction.
func (w *Workload) UpdateSubscriberData(m *core.Machine, thread int, s uint64, rng *sim.Rand, done func(bool)) {
	sf := rng.Intn(4) + 1
	tx := m.Begin(thread)
	w.Subscriber.Get(tx, kv.U64Key(s), func(sub []byte, ok bool, err error) {
		if err != nil || !ok {
			done(false)
			return
		}
		sub[8] ^= 1 // bit_1
		w.Subscriber.Put(tx, kv.U64Key(s), sub, func(err error) {
			if err != nil {
				done(false)
				return
			}
			w.SpecialFac.Get(tx, sfKey(s, sf), func(fac []byte, ok bool, err error) {
				if err != nil {
					done(false)
					return
				}
				if !ok {
					tx.Commit(func(err error) { done(err == nil) })
					return
				}
				fac[10] = byte(rng.Intn(256)) // data_a
				w.SpecialFac.Put(tx, sfKey(s, sf), fac, func(err error) {
					if err != nil {
						done(false)
						return
					}
					tx.Commit(func(err error) { done(err == nil) })
				})
			})
		})
	})
}

// UpdateLocation updates a single subscriber field. Since 70% of TATP
// updates touch one field, the paper function-ships them to the primary;
// we ship when the row's primary is known and remote, and run locally
// otherwise. A shipped call that gets no answer — its primary left the
// configuration, or the stall timeout passed — counts as an abort.
func (w *Workload) UpdateLocation(m *core.Machine, thread int, s uint64, rng *sim.Rand, done func(bool)) {
	vlr := uint32(rng.Intn(1 << 30))
	pm := m.PrimaryOf(w.Subscriber.BucketAddr(kv.U64Key(s)).Region)
	if pm >= 0 && pm != m.ID {
		w.FunctionShipped++
		m.CallApp(pm, &shipUpdateLocation{S: s, VLR: vlr}, func(resp interface{}, err error) {
			done(err == nil && resp.(bool))
		})
		return
	}
	w.execUpdateLocation(m, &shipUpdateLocation{S: s, VLR: vlr}, done)
}

// InsertCallForwarding reads the subscriber and special facility, then
// inserts a call-forwarding row (full commit protocol).
func (w *Workload) InsertCallForwarding(m *core.Machine, thread int, s uint64, rng *sim.Rand, done func(bool)) {
	sf := rng.Intn(4) + 1
	start := []int{0, 8, 16}[rng.Intn(3)]
	tx := m.Begin(thread)
	w.Subscriber.Get(tx, kv.U64Key(s), func(_ []byte, ok bool, err error) {
		if err != nil || !ok {
			done(false)
			return
		}
		row := make([]byte, callFwdRow)
		binary.LittleEndian.PutUint64(row, s)
		row[8] = byte(sf)
		row[9] = byte(start)
		row[10] = byte(start + 8)
		w.CallFwd.Put(tx, cfKey(s, sf, start), row, func(err error) {
			if err != nil {
				done(false)
				return
			}
			tx.Commit(func(err error) { done(err == nil) })
		})
	})
}

// DeleteCallForwarding removes a call-forwarding row.
func (w *Workload) DeleteCallForwarding(m *core.Machine, thread int, s uint64, rng *sim.Rand, done func(bool)) {
	sf := rng.Intn(4) + 1
	start := []int{0, 8, 16}[rng.Intn(3)]
	tx := m.Begin(thread)
	w.CallFwd.Delete(tx, cfKey(s, sf, start), func(_ bool, err error) {
		if err != nil {
			done(false)
			return
		}
		tx.Commit(func(err error) { done(err == nil) })
	})
}
