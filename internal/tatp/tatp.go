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
	"farm/internal/pool"
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

	// ops and ships pool the transactions' state machines (txOp) and the
	// shipped UPDATE_LOCATION requests.
	ops   pool.Free[txOp]
	ships pool.Free[shipUpdateLocation]
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
	w.ops.New = func() *txOp {
		op := &txOp{w: w}
		op.lfFn, op.getFn, op.putFn, op.delFn = op.looked, op.gotRow, op.wrote, op.deleted
		op.commitFn, op.callFn = op.committed, op.called
		return op
	}
	w.ships.New = func() *shipUpdateLocation { return &shipUpdateLocation{w: w} }
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
// core's watched call path; the answer is whether it committed. It comes
// from the workload's pool and goes back through Reclaim, which core calls
// once no copy of the call carrying it is in flight and no handler reads it.
type shipUpdateLocation struct {
	S   uint64
	VLR uint32

	w *Workload
}

// Reclaim returns the request to its workload's pool.
func (r *shipUpdateLocation) Reclaim() {
	r.S, r.VLR = 0, 0
	r.w.ships.Put(r)
}

func (w *Workload) installHandlers() {
	for _, m := range w.C.Machines {
		m := m
		m.SetAppHandler(func(_ int, req interface{}, call core.AppCall) {
			if v, ok := req.(*shipUpdateLocation); ok {
				op := w.newOp(m, nil, nil)
				op.s, op.vlr, op.call = v.S, v.VLR, call
				op.updateLocation()
			}
		})
	}
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

// txOp is one TATP transaction as a pooled state machine: stage says which
// lookup, write or commit is outstanding, its continuations are bound once,
// its key and call-forwarding row are its own arrays, and it returns to the
// workload's pool, reset whole, before it reports. kv neither keeps nor
// changes a key and copies a value into the bucket it writes, so the arrays
// are free again when each operation answers; the rows a Get returns are
// the transaction's bytes, changed in place and written back before it
// finishes. Every failed step aborts the transaction.
type txOp struct {
	w   *Workload
	m   *core.Machine
	tx  *core.Tx
	rng *sim.Rand // UPDATE_SUBSCRIBER_DATA's, for its data_a draw
	// done takes the outcome; nil for an UPDATE_LOCATION shipped to this
	// machine, which answers call instead.
	done func(bool)
	call core.AppCall

	stage uint8
	s     uint64
	sf    int // the facility, or the access-info row's type
	start int // the call-forwarding row's start time
	next  int // GET_NEW_DESTINATION's call-forwarding row
	vlr   uint32

	key [8]byte // kv.U64Key's encoding
	row [callFwdRow]byte

	lfFn     func(val []byte, ok bool, err error)
	getFn    func(val []byte, ok bool, err error)
	putFn    func(err error)
	delFn    func(ok bool, err error)
	commitFn func(err error)
	callFn   func(resp interface{}, err error)
}

// What a txOp is waiting for.
const (
	gsdLookup      = iota // GET_SUBSCRIBER_DATA's lock-free lookup
	gadLookup             // GET_ACCESS_DATA's lock-free lookup
	gndFacility           // GET_NEW_DESTINATION's Get of the facility row
	gndForward            // its Get of call-forwarding row next
	usdSub                // UPDATE_SUBSCRIBER_DATA's Get of the subscriber row
	usdSubPut             // its Put of bit_1
	usdFacility           // its Get of the facility row
	usdFacilityPut        // its Put of data_a
	ulSub                 // UPDATE_LOCATION's Get of the subscriber row
	ulSubPut              // its Put of vlr_location
	icfSub                // INSERT_CALL_FORWARDING's Get of the subscriber row
	icfPut                // its Put of the call-forwarding row
	dcfDelete             // DELETE_CALL_FORWARDING's Delete
)

// cfStarts are the start times of a facility's up to three call-forwarding
// rows.
var cfStarts = [3]int{0, 8, 16}

func (w *Workload) newOp(m *core.Machine, rng *sim.Rand, done func(bool)) *txOp {
	op := w.ops.Get()
	op.m, op.rng, op.done = m, rng, done
	return op
}

// finish returns the state machine to the pool, reset whole but for its
// workload and bound continuations, then reports ok.
func (op *txOp) finish(ok bool) {
	w, done, call := op.w, op.done, op.call
	*op = txOp{w: w, lfFn: op.lfFn, getFn: op.getFn, putFn: op.putFn, delFn: op.delFn, commitFn: op.commitFn, callFn: op.callFn}
	w.ops.Put(op)
	if done == nil {
		call.Reply(ok)
		return
	}
	done(ok)
}

// fail aborts the transaction after a failed step.
func (op *txOp) fail() {
	op.tx.Abort()
	op.finish(false)
}

// setKey encodes v as the key of the next operation.
func (op *txOp) setKey(v uint64) []byte {
	binary.LittleEndian.PutUint64(op.key[:], v)
	return op.key[:]
}

// subKey, typeKey and cfKey encode as the key of the next operation what
// the package's key functions return: subscriber s's row, its access-info
// or special-facility row of type sf (aiKey, sfKey), and its facility sf's
// call-forwarding row at start.
func (op *txOp) subKey() []byte  { return op.setKey(op.s) }
func (op *txOp) typeKey() []byte { return op.setKey(op.s<<2 | uint64(op.sf-1)) }
func (op *txOp) cfKey(start int) []byte {
	return op.setKey(op.s<<(cfStartBits+2) | uint64(op.sf-1)<<cfStartBits | uint64(start))
}

// looked takes a lock-free lookup's answer: a missing access-info row still
// completes GET_ACCESS_DATA.
func (op *txOp) looked(_ []byte, ok bool, err error) {
	op.finish(err == nil && (ok || op.stage == gadLookup))
}

// gotRow takes the row a Get found.
func (op *txOp) gotRow(row []byte, ok bool, err error) {
	if err != nil || !ok && (op.stage == usdSub || op.stage == ulSub || op.stage == icfSub) {
		op.fail()
		return
	}
	w, tx := op.w, op.tx
	switch op.stage {
	case gndFacility:
		if !ok || row[9] == 0 {
			tx.Commit(op.commitFn)
			return
		}
		op.forward(0)
	case gndForward:
		op.forward(op.next + 1)
	case usdSub:
		row[8] ^= 1 // bit_1
		op.stage = usdSubPut
		w.Subscriber.Put(tx, op.subKey(), row, op.putFn)
	case usdFacility:
		if !ok {
			tx.Commit(op.commitFn)
			return
		}
		row[10] = byte(op.rng.Intn(256)) // data_a
		op.stage = usdFacilityPut
		w.SpecialFac.Put(tx, op.typeKey(), row, op.putFn)
	case ulSub:
		binary.LittleEndian.PutUint32(row[32:], op.vlr)
		op.stage = ulSubPut
		w.Subscriber.Put(tx, op.subKey(), row, op.putFn)
	case icfSub:
		binary.LittleEndian.PutUint64(op.row[:], op.s)
		op.row[8] = byte(op.sf)
		op.row[9] = byte(op.start)
		op.row[10] = byte(op.start + 8)
		op.stage = icfPut
		w.CallFwd.Put(tx, op.cfKey(op.start), op.row[:], op.putFn)
	}
}

// wrote goes on from a finished Put.
func (op *txOp) wrote(err error) {
	if err != nil {
		op.fail()
		return
	}
	if op.stage == usdSubPut {
		op.stage = usdFacility
		op.w.SpecialFac.Get(op.tx, op.typeKey(), op.getFn)
		return
	}
	op.tx.Commit(op.commitFn)
}

// deleted goes on from DELETE_CALL_FORWARDING's Delete.
func (op *txOp) deleted(_ bool, err error) {
	if err != nil {
		op.fail()
		return
	}
	op.tx.Commit(op.commitFn)
}

// committed takes the commit's answer.
func (op *txOp) committed(err error) { op.finish(err == nil) }

// called takes the answer of an UPDATE_LOCATION shipped to the row's
// primary.
func (op *txOp) called(resp interface{}, err error) { op.finish(err == nil && resp.(bool)) }

// forward reads GET_NEW_DESTINATION's call-forwarding row i, or commits
// once all three were read.
func (op *txOp) forward(i int) {
	if i == len(cfStarts) {
		op.tx.Commit(op.commitFn)
		return
	}
	op.next, op.stage = i, gndForward
	op.w.CallFwd.Get(op.tx, op.cfKey(cfStarts[i]), op.getFn)
}

// GetSubscriberData is a single-row lookup using a lock-free read (70% of
// TATP together with GetAccessData; usually one RDMA read, no commit
// phase).
func (w *Workload) GetSubscriberData(m *core.Machine, thread int, s uint64, done func(bool)) {
	op := w.newOp(m, nil, done)
	op.s, op.stage = s, gsdLookup
	w.Subscriber.LockFreeGet(m, thread, op.subKey(), op.lfFn)
}

// GetAccessData is the other single-row lock-free lookup; a miss (the
// access-info row does not exist) still counts as a completed transaction.
func (w *Workload) GetAccessData(m *core.Machine, thread int, s uint64, rng *sim.Rand, done func(bool)) {
	op := w.newOp(m, nil, done)
	op.s, op.sf, op.stage = s, rng.Intn(4)+1, gadLookup
	w.AccessInfo.LockFreeGet(m, thread, op.typeKey(), op.lfFn)
}

// GetNewDestination reads a special facility and its call-forwarding rows
// (2–4 rows) and needs validation at commit (§6.2).
func (w *Workload) GetNewDestination(m *core.Machine, thread int, s uint64, rng *sim.Rand, done func(bool)) {
	w.getNewDestination(m, thread, s, rng.Intn(4)+1, done)
}

// getNewDestination is GET_NEW_DESTINATION of facility sf.
func (w *Workload) getNewDestination(m *core.Machine, thread int, s uint64, sf int, done func(bool)) {
	op := w.newOp(m, nil, done)
	op.s, op.sf, op.stage = s, sf, gndFacility
	op.tx = m.Begin(thread)
	w.SpecialFac.Get(op.tx, op.typeKey(), op.getFn)
}

// UpdateSubscriberData updates one subscriber bit and one special-facility
// field in a single distributed transaction.
func (w *Workload) UpdateSubscriberData(m *core.Machine, thread int, s uint64, rng *sim.Rand, done func(bool)) {
	op := w.newOp(m, rng, done)
	op.s, op.sf, op.stage = s, rng.Intn(4)+1, usdSub
	op.tx = m.Begin(thread)
	w.Subscriber.Get(op.tx, op.subKey(), op.getFn)
}

// UpdateLocation updates a single subscriber field. Since 70% of TATP
// updates touch one field, the paper function-ships them to the primary;
// we ship when the row's primary is known and remote, and run locally
// otherwise. A shipped call that gets no answer — its primary left the
// configuration, or the stall timeout passed — counts as an abort.
func (w *Workload) UpdateLocation(m *core.Machine, thread int, s uint64, rng *sim.Rand, done func(bool)) {
	op := w.newOp(m, nil, done)
	op.s, op.vlr = s, uint32(rng.Intn(1<<30))
	pm := m.PrimaryOf(w.Subscriber.BucketAddr(op.subKey()).Region)
	if pm < 0 || pm == m.ID {
		op.updateLocation()
		return
	}
	w.FunctionShipped++
	req := w.ships.Get()
	req.S, req.VLR = s, op.vlr
	m.CallApp(pm, req, op.callFn)
}

// updateLocation runs UPDATE_LOCATION as a local transaction at (ideally)
// the row's primary, on the subscriber's thread.
func (op *txOp) updateLocation() {
	op.tx = op.m.Begin(int(op.s) % op.m.Threads())
	op.stage = ulSub
	op.w.Subscriber.Get(op.tx, op.subKey(), op.getFn)
}

// InsertCallForwarding reads the subscriber and special facility, then
// inserts a call-forwarding row (full commit protocol).
func (w *Workload) InsertCallForwarding(m *core.Machine, thread int, s uint64, rng *sim.Rand, done func(bool)) {
	op := w.newOp(m, nil, done)
	op.s, op.sf = s, rng.Intn(4)+1
	op.start, op.stage = cfStarts[rng.Intn(3)], icfSub
	op.tx = m.Begin(thread)
	w.Subscriber.Get(op.tx, op.subKey(), op.getFn)
}

// DeleteCallForwarding removes a call-forwarding row.
func (w *Workload) DeleteCallForwarding(m *core.Machine, thread int, s uint64, rng *sim.Rand, done func(bool)) {
	op := w.newOp(m, nil, done)
	op.s, op.sf = s, rng.Intn(4)+1
	op.start, op.stage = cfStarts[rng.Intn(3)], dcfDelete
	op.tx = m.Begin(thread)
	w.CallFwd.Delete(op.tx, op.cfKey(op.start), op.delFn)
}
