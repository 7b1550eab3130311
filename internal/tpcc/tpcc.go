// Package tpcc implements the TPC-C benchmark on the FaRM API (§6.2):
// nine tables over sixteen indexes — twelve point indexes as FaRM hash
// tables and four range indexes (orders, order lines, new orders, customer
// names) as FaRM B-trees — with the full five-transaction mix. Tables and
// clients are co-partitioned by warehouse ("around 10% of all transactions
// access remote data"), and throughput is reported as successfully
// committed "new order" transactions, as the paper does.
//
// Scale knobs are reduced from the TPC-C defaults (customers per district,
// items) so simulated populations stay tractable; the transaction logic is
// complete.
package tpcc

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"farm/internal/btree"
	"farm/internal/core"
	"farm/internal/kv"
	"farm/internal/loadgen"
	"farm/internal/sim"
	"farm/internal/stats"
)

// Config scales the database.
type Config struct {
	Warehouses       int
	Districts        int // per warehouse (10 in the spec)
	CustomersPerDist int // 3000 in the spec; scaled down by default
	Items            int // 100000 in the spec; scaled down by default
	RegionsPerWH     int
	RemotePaymentPct int // 15 in the spec
	RemoteItemPct    int // 1 in the spec
}

// DefaultConfig returns the scaled simulation defaults.
func DefaultConfig(warehouses int) Config {
	return Config{
		Warehouses:       warehouses,
		Districts:        10,
		CustomersPerDist: 30,
		Items:            200,
		RegionsPerWH:     2,
		RemotePaymentPct: 15,
		RemoteItemPct:    1,
	}
}

// warehouse holds one warehouse's co-partitioned tables and indexes.
type warehouse struct {
	id      int
	regions []uint32
	home    int // primary machine of the warehouse's first region

	// Point indexes (hash tables).
	wTbl    *kv.Table // warehouse row
	dTbl    *kv.Table // districts
	cTbl    *kv.Table // customers
	sTbl    *kv.Table // stock
	iTbl    *kv.Table // items (replicated per warehouse, standard trick)
	histTbl *kv.Table // history (append-only)

	// Range indexes (B-trees). The orders, order-line and new-order
	// indexes are physically partitioned by district (their TPC-C keys are
	// district-prefixed), which keeps B-tree growth splits from
	// manufacturing cross-district conflicts; logically they are the four
	// range indexes of §6.2.
	orders     []*btree.Tree // per district
	orderLines []*btree.Tree // per district
	newOrders  []*btree.Tree // per district
	custByName *btree.Tree
}

// Workload is the populated database.
type Workload struct {
	C   *core.Cluster
	Cfg Config
	whs []*warehouse
	// local holds, per machine id, the warehouses homed there, in id order.
	local [][]*warehouse

	histSeq uint64
	// noFree and opFree hold finished state machines for reuse: NewOrder's
	// (newOrder) and the other four transactions' (txOp).
	noFree []*newOrder
	opFree []*txOp

	// NewOrderLat and NewOrderTimeline record only "new order"
	// transactions, the metric of Figures 8 and 10.
	NewOrderLat      *stats.Histogram
	NewOrderTimeline *stats.Timeline
	NewOrders        uint64
	// MeasureFrom gates recording (set after warmup).
	MeasureFrom sim.Time

	// RemoteAccesses counts transactions that touched another warehouse.
	RemoteAccesses uint64

	// IgnoreLocality makes drivers pick random warehouses instead of ones
	// homed on their machine — the ablation for §6.2's co-partitioning
	// ("around 10% of all transactions access remote data" relies on it).
	IgnoreLocality bool
}

// Row sizes.
const (
	warehouseRow = 16 // ytd, tax
	districtRow  = 16 // next_o_id, ytd, tax
	customerRow  = 32 // balance, ytd_payment, payment_cnt, delivery_cnt
	stockRow     = 16 // quantity, ytd, order_cnt
	itemRow      = 8  // price
	historyRow   = 16
	orderVal     = 16 // c_id, entry_d, carrier, ol_cnt
	orderLineVal = 16 // i_id, qty, amount
)

// treeOrder is the range indexes' keys per node. Tests shrink it so that a
// short run splits nodes at every level.
var treeOrder = 32

// B-tree keys within one warehouse.
func orderKey(d, o int) uint64 { return uint64(d)<<40 | uint64(o) }
func olKey(d, o, n int) uint64 { return uint64(d)<<40 | uint64(o)<<8 | uint64(n) }
func custKey(d, c int) []byte  { return kv.U64Key(custID(d, c)) }
func custID(d, c int) uint64   { return uint64(d)<<16 | uint64(c) }

// warehouseKey is the one key of a warehouse table (kv never changes or
// keeps a key it is given, so every transaction can share it).
var warehouseKey = kv.U64Key(0)

func custNameKey(d, c int) uint64 {
	// Customers keyed by (district, synthetic last-name bucket, id) so
	// by-name range lookups are possible.
	return uint64(d)<<32 | uint64(c%10)<<16 | uint64(c)
}

// Setup creates and populates the database.
func Setup(c *core.Cluster, cfg Config) (*Workload, error) {
	w := &Workload{
		C:                c,
		Cfg:              cfg,
		NewOrderLat:      stats.NewHistogram(),
		NewOrderTimeline: stats.NewTimeline(sim.Millisecond),
	}
	for wid := 0; wid < cfg.Warehouses; wid++ {
		wh, err := w.setupWarehouse(wid)
		if err != nil {
			return nil, fmt.Errorf("tpcc: warehouse %d: %w", wid, err)
		}
		w.whs = append(w.whs, wh)
	}
	w.local = make([][]*warehouse, len(c.Machines))
	for _, wh := range w.whs {
		w.local[wh.home] = append(w.local[wh.home], wh)
	}
	return w, nil
}

func (w *Workload) setupWarehouse(wid int) (*warehouse, error) {
	c := w.C
	cfg := w.Cfg
	// Allocate the warehouse's regions with locality chaining so they land
	// on one replica set (§3 locality hints).
	regions, err := c.CreateRegions(wid%len(c.Machines), 1, 0)
	if err != nil {
		return nil, err
	}
	for i := 1; i < cfg.RegionsPerWH; i++ {
		more, err := c.CreateRegions(wid%len(c.Machines), 1, regions[0])
		if err != nil {
			return nil, err
		}
		regions = append(regions, more...)
	}
	wh := &warehouse{id: wid, regions: regions}
	wh.home = c.Machine(0).PrimaryOf(regions[0])
	if wh.home < 0 {
		wh.home = 0
	}
	m := c.Machine(wh.home)

	mk := func(name string, buckets, maxVal int) *kv.Table {
		return kv.MustCreate(c, m, kv.Config{
			Name: fmt.Sprintf("%s-%d", name, wid), Buckets: buckets, Slots: 4,
			MaxKey: 8, MaxVal: maxVal, Regions: regions,
		})
	}
	// Buckets are sized generously for the write-heavy tables: a bucket is
	// the conflict granularity (one FaRM object), so co-hashing two hot
	// rows would manufacture false conflicts.
	nCust := cfg.Districts * cfg.CustomersPerDist
	wh.wTbl = mk("warehouse", 1, warehouseRow)
	wh.dTbl = mk("district", cfg.Districts*4, districtRow)
	wh.cTbl = mk("customer", nCust, customerRow)
	wh.sTbl = mk("stock", cfg.Items, stockRow)
	wh.iTbl = mk("item", cfg.Items/3+1, itemRow)
	wh.histTbl = mk("history", nCust*2, historyRow)

	mkTree := func(name string, maxVal int) *btree.Tree {
		return btree.MustCreate(c, m, btree.Config{
			Name: fmt.Sprintf("%s-%d", name, wid), Order: treeOrder, MaxVal: maxVal, Region: regions[0],
		})
	}
	for d := 0; d <= cfg.Districts; d++ {
		wh.orders = append(wh.orders, mkTree(fmt.Sprintf("orders-%d", d), orderVal))
		wh.orderLines = append(wh.orderLines, mkTree(fmt.Sprintf("order_lines-%d", d), orderLineVal))
		wh.newOrders = append(wh.newOrders, mkTree(fmt.Sprintf("new_orders-%d", d), 1))
	}
	wh.custByName = mkTree("cust_by_name", 8)

	// Populate.
	put := func(tx *core.Tx, t *kv.Table, key, val []byte) func(func(error)) {
		return func(next func(error)) { t.Put(tx, key, val, next) }
	}

	// Warehouse + districts in one transaction.
	err = loadgen.RunSync(c, m, 0, func(tx *core.Tx, done func(error)) {
		var fns []func(func(error))
		wrow := make([]byte, warehouseRow)
		binary.LittleEndian.PutUint32(wrow[8:], uint32(wid%20)) // tax
		fns = append(fns, put(tx, wh.wTbl, warehouseKey, wrow))
		for d := 1; d <= cfg.Districts; d++ {
			drow := make([]byte, districtRow)
			binary.LittleEndian.PutUint32(drow, 1) // next_o_id
			fns = append(fns, put(tx, wh.dTbl, kv.U64Key(uint64(d)), drow))
		}
		chain(fns, done)
	})
	if err != nil {
		return nil, err
	}

	// Customers (hash + name index), batched.
	for d := 1; d <= cfg.Districts; d++ {
		for base := 0; base < cfg.CustomersPerDist; base += 16 {
			d, base := d, base
			err := loadgen.RunSync(c, m, base%m.Threads(), func(tx *core.Tx, done func(error)) {
				var fns []func(func(error))
				for i := base; i < base+16 && i < cfg.CustomersPerDist; i++ {
					crow := make([]byte, customerRow)
					binary.LittleEndian.PutUint64(crow, 10) // balance -10.00 semantics aside
					fns = append(fns, put(tx, wh.cTbl, custKey(d, i), crow))
					i := i
					fns = append(fns, func(next func(error)) {
						wh.custByName.Put(tx, custNameKey(d, i), kv.U64Key(uint64(i)), next)
					})
				}
				chain(fns, done)
			})
			if err != nil {
				return nil, err
			}
		}
	}

	// Items + stock, batched.
	for base := 0; base < cfg.Items; base += 16 {
		base := base
		err := loadgen.RunSync(c, m, base%m.Threads(), func(tx *core.Tx, done func(error)) {
			var fns []func(func(error))
			for i := base; i < base+16 && i < cfg.Items; i++ {
				irow := make([]byte, itemRow)
				binary.LittleEndian.PutUint32(irow, uint32(100+i%900)) // price
				fns = append(fns, put(tx, wh.iTbl, kv.U64Key(uint64(i)), irow))
				srow := make([]byte, stockRow)
				binary.LittleEndian.PutUint32(srow, 100) // quantity
				fns = append(fns, put(tx, wh.sTbl, kv.U64Key(uint64(i)), srow))
			}
			chain(fns, done)
		})
		if err != nil {
			return nil, err
		}
	}
	return wh, nil
}

func chain(fns []func(func(error)), done func(error)) {
	var run func(i int)
	run = func(i int) {
		if i == len(fns) {
			done(nil)
			return
		}
		fns[i](func(err error) {
			if err != nil {
				done(err)
				return
			}
			run(i + 1)
		})
	}
	run(0)
}

// HomeMachines maps each machine to the warehouses it serves (clients are
// co-partitioned with their warehouse, §6.2).
func (w *Workload) HomeMachines() map[int][]int {
	out := make(map[int][]int)
	for _, wh := range w.whs {
		out[wh.home] = append(out[wh.home], wh.id)
	}
	return out
}

// CheckConsistency judges the database against the TPC-C consistency
// conditions (clause 3.3.2) this schema can express, on a quiescent cluster,
// reading each district in one transaction through its home machine:
//
//   - d_next_o_id − 1 is the greatest order id, in the order index and — when
//     that is not empty — in the new-order index (3.3.2.2); stronger, the
//     order index holds exactly the ids 1 … d_next_o_id − 1;
//   - the new-order ids are contiguous (3.3.2.3);
//   - every order has exactly o_ol_cnt order lines, numbered from 0, and no
//     line belongs to no order (3.3.2.6).
//
// A lost insert, a phantom or a half-applied split breaks one of them. It
// returns the orders it counted: on a fault-free run, Workload.NewOrders.
func (w *Workload) CheckConsistency() (orders uint64, err error) {
	for _, wh := range w.whs {
		for d := 1; d <= w.Cfg.Districts; d++ {
			n, err := w.checkDistrict(wh, d)
			if err != nil {
				return 0, fmt.Errorf("tpcc: warehouse %d district %d: %w", wh.id, d, err)
			}
			orders += uint64(n)
		}
	}
	return orders, nil
}

func (w *Workload) checkDistrict(wh *warehouse, d int) (last int, err error) {
	err = loadgen.RunSync(w.C, w.C.Machine(wh.home), 0, func(tx *core.Tx, done func(error)) {
		wh.dTbl.Get(tx, kv.U64Key(uint64(d)), func(drow []byte, ok bool, err error) {
			if err != nil || !ok {
				done(fmt.Errorf("district row: found=%v, %v", ok, err))
				return
			}
			last = int(binary.LittleEndian.Uint32(drow)) - 1
			wh.orders[d].Scan(tx, 0, math.MaxInt, nil, func(orders []btree.Pair, err error) {
				if err != nil {
					done(err)
					return
				}
				wh.newOrders[d].Scan(tx, 0, math.MaxInt, nil, func(newOrders []btree.Pair, err error) {
					if err != nil {
						done(err)
						return
					}
					wh.orderLines[d].Scan(tx, 0, math.MaxInt, nil, func(lines []btree.Pair, err error) {
						if err != nil {
							done(err)
							return
						}
						done(judgeDistrict(d, last, orders, newOrders, lines))
					})
				})
			})
		})
	})
	return last, err
}

// judgeDistrict checks one district's indexes, each scanned whole and in key
// order, against its d_next_o_id − 1.
func judgeDistrict(d, last int, orders, newOrders, lines []btree.Pair) error {
	if len(orders) != last {
		return fmt.Errorf("d_next_o_id-1 = %d, order index holds %d orders", last, len(orders))
	}
	k := 0
	for i, o := range orders {
		if o.Key != orderKey(d, i+1) {
			return fmt.Errorf("order index: key %#x where order %d belongs", o.Key, i+1)
		}
		for n := 0; n < int(o.Val[12]); n++ {
			if k == len(lines) || lines[k].Key != olKey(d, i+1, n) {
				return fmt.Errorf("order %d has o_ol_cnt %d, line %d is missing", i+1, o.Val[12], n)
			}
			k++
		}
	}
	if k != len(lines) {
		return fmt.Errorf("order-line index: key %#x belongs to no order", lines[k].Key)
	}
	for i, no := range newOrders {
		if no.Key != newOrders[0].Key+uint64(i) {
			return fmt.Errorf("new-order index: key %#x after %#x", no.Key, newOrders[i-1].Key)
		}
	}
	if n := len(newOrders); n > 0 && newOrders[n-1].Key != orderKey(d, last) {
		return fmt.Errorf("d_next_o_id-1 = %d, new-order index ends at %#x", last, newOrders[n-1].Key)
	}
	return nil
}

// DescentStats sums btree.Tree.DescentStats over every range index.
func (w *Workload) DescentStats() (s [5]uint64) {
	for _, wh := range w.whs {
		for _, trees := range [][]*btree.Tree{wh.orders, wh.orderLines, wh.newOrders, {wh.custByName}} {
			for _, t := range trees {
				for i, v := range t.DescentStats() {
					s[i] += v
				}
			}
		}
	}
	return s
}

// warehouseFor picks a home warehouse for a driver on machine m (falling
// back to any warehouse when m hosts none).
func (w *Workload) warehouseFor(m *core.Machine, rng *sim.Rand) *warehouse {
	if w.IgnoreLocality {
		return w.whs[rng.Intn(len(w.whs))]
	}
	var local []*warehouse
	if m.ID < len(w.local) {
		local = w.local[m.ID] // a machine that joined after Setup homes none
	}
	if len(local) == 0 {
		return w.whs[rng.Intn(len(w.whs))]
	}
	return local[rng.Intn(len(local))]
}

// Mix returns the standard TPC-C mix: 45% new-order, 43% payment, 4%
// order-status, 4% delivery, 4% stock-level.
func (w *Workload) Mix() loadgen.Op {
	return func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
		wh := w.warehouseFor(m, rng)
		switch p := rng.Intn(100); {
		case p < 45:
			w.NewOrder(m, thread, wh, rng, done)
		case p < 88:
			w.Payment(m, thread, wh, rng, done)
		case p < 92:
			w.OrderStatus(m, thread, wh, rng, done)
		case p < 96:
			w.Delivery(m, thread, wh, rng, done)
		default:
			w.StockLevel(m, thread, wh, rng, done)
		}
	}
}

// NewOrder is the measured transaction: read warehouse/district/customer,
// advance the district's next_o_id, insert the order, its new-order entry
// and 5–15 order lines, reading and updating stock for each item (1%
// remote warehouse per item). One that commits is counted in NewOrders and,
// from MeasureFrom on, recorded in NewOrderLat and NewOrderTimeline.
func (w *Workload) NewOrder(m *core.Machine, thread int, wh *warehouse, rng *sim.Rand, done func(bool)) {
	no := w.newOrderOp()
	cfg := w.Cfg
	no.wh, no.rng, no.done, no.begin = wh, rng, done, w.C.Eng.Now()
	no.d = rng.Intn(cfg.Districts) + 1
	no.cid = rng.Intn(cfg.CustomersPerDist)
	no.nItems = rng.Intn(11) + 5
	binary.LittleEndian.PutUint64(no.dkey[:], uint64(no.d))
	no.tx = m.Begin(thread)
	no.stage = noWarehouse
	wh.wTbl.Get(no.tx, warehouseKey, no.getFn)
}

// newOrder is one NewOrder transaction as a pooled state machine: stage
// says which lookup, write or commit is outstanding, and its continuations
// are bound once. Its keys and rows are its own arrays — kv and btree
// neither keep nor change a key, and copy a value into the row they write —
// and it returns to the workload's pool, reset whole, before done runs, so a
// done that starts the next NewOrder reuses it.
type newOrder struct {
	w      *Workload
	tx     *core.Tx
	wh     *warehouse
	supply *warehouse // the current line's stock warehouse
	rng    *sim.Rand
	done   func(bool)
	begin  sim.Time

	stage        uint8
	d, cid, oid  int
	nItems, n    int    // order lines, and the current line's number
	item         int    // the current line's item
	price, order uint32 // its price and quantity

	dkey, ckey, ikey [8]byte // kv.U64Key's encoding
	orow             [orderVal]byte
	ol               [orderLineVal]byte

	getFn    func(row []byte, ok bool, err error)
	putFn    func(err error)
	commitFn func(err error)
}

// What a newOrder is waiting for.
const (
	noWarehouse = iota // Get of the warehouse row
	noDistrict         // Get of the district row
	noNextID           // Put of its advanced next_o_id
	noCustomer         // Get of the customer row
	noOrder            // Put of the order
	noNewOrder         // Put of its new-order entry
	noItem             // Get of a line's item row
	noStock            // Get of its stock row
	noStockPut         // Put of the updated stock row
	noLine             // Put of the order line
)

// newOrderVal is every new-order entry's value.
var newOrderVal = []byte{1}

func (w *Workload) newOrderOp() *newOrder {
	if k := len(w.noFree); k > 0 {
		no := w.noFree[k-1]
		w.noFree = w.noFree[:k-1]
		return no
	}
	no := &newOrder{w: w}
	no.getFn, no.putFn, no.commitFn = no.gotRow, no.wrote, no.committed
	return no
}

// finish returns the state machine to the pool, reset whole but for its
// workload and bound continuations, then reports ok.
func (no *newOrder) finish(ok bool) {
	w, done := no.w, no.done
	*no = newOrder{w: w, getFn: no.getFn, putFn: no.putFn, commitFn: no.commitFn}
	w.noFree = append(w.noFree, no)
	done(ok)
}

// fail aborts the transaction after a failed step.
func (no *newOrder) fail() {
	no.tx.Abort()
	no.finish(false)
}

// gotRow takes the row a Get found.
func (no *newOrder) gotRow(row []byte, ok bool, err error) {
	if err != nil || !ok {
		no.fail()
		return
	}
	wh := no.wh
	switch no.stage {
	case noWarehouse:
		no.stage = noDistrict
		wh.dTbl.Get(no.tx, no.dkey[:], no.getFn)
	case noDistrict:
		no.oid = int(binary.LittleEndian.Uint32(row))
		binary.LittleEndian.PutUint32(row, uint32(no.oid+1))
		no.stage = noNextID
		wh.dTbl.Put(no.tx, no.dkey[:], row, no.putFn)
	case noCustomer:
		binary.LittleEndian.PutUint32(no.orow[:], uint32(no.cid))
		no.orow[12] = byte(no.nItems)
		no.stage = noOrder
		wh.orders[no.d].Put(no.tx, orderKey(no.d, no.oid), no.orow[:], no.putFn)
	case noItem:
		no.price = binary.LittleEndian.Uint32(row)
		no.stage = noStock
		no.supply.sTbl.Get(no.tx, no.ikey[:], no.getFn)
	case noStock:
		qty := binary.LittleEndian.Uint32(row)
		if qty < 10 {
			qty += 91
		}
		no.order = uint32(no.rng.Intn(10) + 1)
		binary.LittleEndian.PutUint32(row, qty-no.order)
		binary.LittleEndian.PutUint32(row[8:], binary.LittleEndian.Uint32(row[8:])+1) // order_cnt
		no.stage = noStockPut
		no.supply.sTbl.Put(no.tx, no.ikey[:], row, no.putFn)
	}
}

// wrote goes on from a finished Put.
func (no *newOrder) wrote(err error) {
	if err != nil {
		no.fail()
		return
	}
	wh, d := no.wh, no.d
	switch no.stage {
	case noNextID:
		binary.LittleEndian.PutUint64(no.ckey[:], custID(d, no.cid))
		no.stage = noCustomer
		wh.cTbl.Get(no.tx, no.ckey[:], no.getFn)
	case noOrder:
		no.stage = noNewOrder
		wh.newOrders[d].Put(no.tx, orderKey(d, no.oid), newOrderVal, no.putFn)
	case noNewOrder:
		no.line()
	case noStockPut:
		binary.LittleEndian.PutUint32(no.ol[:], uint32(no.item))
		binary.LittleEndian.PutUint32(no.ol[4:], no.order)
		binary.LittleEndian.PutUint32(no.ol[8:], no.order*no.price)
		no.stage = noLine
		wh.orderLines[d].Put(no.tx, olKey(d, no.oid, no.n), no.ol[:], no.putFn)
	case noLine:
		no.n++
		no.line()
	}
}

// line starts order line n — its item, supplying warehouse, item and stock
// rows — or commits once every line is in.
func (no *newOrder) line() {
	w, wh, rng := no.w, no.wh, no.rng
	if no.n == no.nItems {
		no.tx.Commit(no.commitFn)
		return
	}
	no.item = rng.Intn(w.Cfg.Items)
	no.supply = wh
	if rng.Intn(100) < w.Cfg.RemoteItemPct && len(w.whs) > 1 {
		no.supply = w.whs[rng.Intn(len(w.whs))]
		if no.supply != wh {
			w.RemoteAccesses++
		}
	}
	binary.LittleEndian.PutUint64(no.ikey[:], uint64(no.item)) // the item row and its stock row share it
	no.stage = noItem
	wh.iTbl.Get(no.tx, no.ikey[:], no.getFn)
}

func (no *newOrder) committed(err error) {
	if err == nil {
		w := no.w
		w.NewOrders++
		if now := w.C.Eng.Now(); now >= w.MeasureFrom {
			w.NewOrderLat.Record(now - no.begin)
			w.NewOrderTimeline.Add(now, 1)
		}
	}
	no.finish(err == nil)
}

// Payment updates warehouse/district ytd and the customer balance (15%
// remote customer) and appends a history row.
func (w *Workload) Payment(m *core.Machine, thread int, wh *warehouse, rng *sim.Rand, done func(bool)) {
	op := w.newTxOp(m, thread, wh, rng, done)
	op.d = rng.Intn(w.Cfg.Districts) + 1
	op.cwh = wh
	if rng.Intn(100) < w.Cfg.RemotePaymentPct && len(w.whs) > 1 {
		op.cwh = w.whs[rng.Intn(len(w.whs))]
		if op.cwh != wh {
			w.RemoteAccesses++
		}
	}
	op.cid = rng.Intn(w.Cfg.CustomersPerDist)
	op.amount = uint64(rng.Intn(5000) + 1)
	binary.LittleEndian.PutUint64(op.dkey[:], uint64(op.d))
	binary.LittleEndian.PutUint64(op.ckey[:], custID(op.d, op.cid))
	op.tx = m.Begin(thread)
	op.stage = payWarehouse
	wh.wTbl.Get(op.tx, warehouseKey, op.getFn)
}

// OrderStatus reads a customer (by id or through the name index) and the
// lines of the district's most recent order (read-only; B-tree range
// read).
func (w *Workload) OrderStatus(m *core.Machine, thread int, wh *warehouse, rng *sim.Rand, done func(bool)) {
	op := w.newTxOp(m, thread, wh, rng, done)
	op.d = rng.Intn(w.Cfg.Districts) + 1
	op.cid = rng.Intn(w.Cfg.CustomersPerDist)
	binary.LittleEndian.PutUint64(op.dkey[:], uint64(op.d))
	op.tx = m.Begin(thread)
	if rng.Bool(0.6) {
		// 60% select customer by last name through the name index.
		op.stage = osByName
		wh.custByName.Scan(op.tx, custNameKey(op.d, op.cid)&^0xFFFF, 3, op.pairs[:0], op.scanFn)
		return
	}
	binary.LittleEndian.PutUint64(op.ckey[:], custID(op.d, op.cid))
	op.stage = osCustomer
	wh.cTbl.Get(op.tx, op.ckey[:], op.getFn)
}

// Delivery processes the oldest undelivered order of each district, one
// transaction per district as the spec permits.
func (w *Workload) Delivery(m *core.Machine, thread int, wh *warehouse, rng *sim.Rand, done func(bool)) {
	op := w.newTxOp(m, thread, wh, rng, done)
	op.d = 1
	op.deliver()
}

// StockLevel counts recent-order items below a stock threshold (read-only,
// large B-tree scan + stock point reads).
func (w *Workload) StockLevel(m *core.Machine, thread int, wh *warehouse, rng *sim.Rand, done func(bool)) {
	op := w.newTxOp(m, thread, wh, rng, done)
	op.d = rng.Intn(w.Cfg.Districts) + 1
	op.threshold = uint32(rng.Intn(11) + 10)
	binary.LittleEndian.PutUint64(op.dkey[:], uint64(op.d))
	op.tx = m.Begin(thread)
	op.stage = slDistrict
	wh.dTbl.Get(op.tx, op.dkey[:], op.getFn)
}

// txOp is one Payment, OrderStatus, Delivery or StockLevel as a pooled state
// machine, in newOrder's shape: stage says which lookup, write, scan or
// commit is outstanding, its continuations are bound once, its keys and
// history row are its own arrays, and it returns to the workload's pool,
// reset whole, before done runs. The rows a Get returns and the pairs a Scan
// returns are the transaction's bytes, changed in place and written back
// before it finishes. Every failed step aborts the transaction, which
// returns the slots a split or an overflow bucket reserved.
type txOp struct {
	w      *Workload
	m      *core.Machine
	thread int
	tx     *core.Tx
	wh     *warehouse
	cwh    *warehouse // Payment's customer warehouse
	rng    *sim.Rand
	done   func(bool)

	stage     uint8
	d, cid    int
	oid       int    // OrderStatus's and Delivery's order
	amount    uint64 // Payment's amount, Delivery's order total
	nokey     uint64 // Delivery's new-order key
	threshold uint32 // StockLevel's
	ids       []uint32
	pairs     []btree.Pair // what the last Scan returned, kept across recycling
	next      int          // StockLevel's item being checked
	low       int          // StockLevel's items below threshold

	dkey, ckey, key [8]byte // kv.U64Key's encoding; key is history's or stock's
	hrow            [historyRow]byte

	getFn    func(row []byte, ok bool, err error)
	putFn    func(err error)
	scanFn   func(pairs []btree.Pair, err error)
	delFn    func(ok bool, err error)
	commitFn func(err error)
}

// What a txOp is waiting for.
const (
	payWarehouse    = iota // Get of the warehouse row
	payWarehousePut        // Put of its ytd
	payDistrict            // Get of the district row
	payDistrictPut         // Put of its ytd
	payCustomer            // Get of the customer row
	payCustomerPut         // Put of its balance
	payHistory             // Put of the history row
	osByName               // Scan of the name index
	osCustomer             // Get of the customer row
	osDistrict             // Get of the district row
	osOrder                // Get of the latest order
	osLines                // Scan of its lines
	dlNewOrder             // Scan of the district's oldest new-order entry
	dlEmpty                // commit of a district with none
	dlDelete               // Delete of the entry
	dlOrder                // Get of its order
	dlOrderPut             // Put of the order's carrier
	dlLines                // Scan of its lines
	dlCustomer             // Get of the customer row
	dlCustomerPut          // Put of its balance
	dlCommit               // commit of the district's delivery
	slDistrict             // Get of the district row
	slLines                // Scan of the recent order lines
	slStock                // Get of an item's stock row
)

func (w *Workload) newTxOp(m *core.Machine, thread int, wh *warehouse, rng *sim.Rand, done func(bool)) *txOp {
	var op *txOp
	if k := len(w.opFree); k > 0 {
		op = w.opFree[k-1]
		w.opFree = w.opFree[:k-1]
	} else {
		op = &txOp{w: w}
		op.getFn, op.putFn, op.scanFn, op.delFn, op.commitFn = op.gotRow, op.wrote, op.scanned, op.deleted, op.committed
	}
	op.m, op.thread, op.wh, op.rng, op.done = m, thread, wh, rng, done
	return op
}

// finish returns the state machine to the pool, reset whole but for its
// workload, bound continuations and the capacity of ids and pairs, then
// reports ok.
func (op *txOp) finish(ok bool) {
	w, done := op.w, op.done
	clear(op.pairs)
	*op = txOp{w: w, ids: op.ids[:0], pairs: op.pairs[:0], getFn: op.getFn, putFn: op.putFn, scanFn: op.scanFn, delFn: op.delFn, commitFn: op.commitFn}
	w.opFree = append(w.opFree, op)
	done(ok)
}

// fail aborts the transaction after a failed step.
func (op *txOp) fail() {
	op.tx.Abort()
	op.finish(false)
}

// gotRow takes the row a Get found.
func (op *txOp) gotRow(row []byte, ok bool, err error) {
	if err != nil || !ok && op.stage != osOrder && op.stage != slStock {
		op.fail()
		return
	}
	wh, tx, d := op.wh, op.tx, op.d
	switch op.stage {
	case payWarehouse:
		binary.LittleEndian.PutUint64(row, binary.LittleEndian.Uint64(row)+op.amount)
		op.stage = payWarehousePut
		wh.wTbl.Put(tx, warehouseKey, row, op.putFn)
	case payDistrict:
		binary.LittleEndian.PutUint64(row[8:], binary.LittleEndian.Uint64(row[8:])+op.amount)
		op.stage = payDistrictPut
		wh.dTbl.Put(tx, op.dkey[:], row, op.putFn)
	case payCustomer:
		binary.LittleEndian.PutUint64(row, binary.LittleEndian.Uint64(row)+op.amount)
		binary.LittleEndian.PutUint32(row[16:], binary.LittleEndian.Uint32(row[16:])+1)
		op.stage = payCustomerPut
		op.cwh.cTbl.Put(tx, op.ckey[:], row, op.putFn)
	case osCustomer:
		op.lookupOrder()
	case osDistrict:
		next := int(binary.LittleEndian.Uint32(row))
		if next <= 1 {
			tx.Commit(op.commitFn)
			return
		}
		op.oid = next - 1
		op.stage = osOrder
		wh.orders[d].Get(tx, orderKey(d, op.oid), op.getFn)
	case osOrder:
		op.stage = osLines
		wh.orderLines[d].Scan(tx, olKey(d, op.oid, 0), 15, op.pairs[:0], op.scanFn)
	case dlOrder:
		row[13] = byte(op.rng.Intn(10) + 1) // carrier
		op.cid = int(binary.LittleEndian.Uint32(row))
		op.stage = dlOrderPut
		wh.orders[d].Put(tx, op.nokey, row, op.putFn)
	case dlCustomer:
		binary.LittleEndian.PutUint64(row, binary.LittleEndian.Uint64(row)+op.amount)
		binary.LittleEndian.PutUint32(row[20:], binary.LittleEndian.Uint32(row[20:])+1)
		op.stage = dlCustomerPut
		wh.cTbl.Put(tx, op.ckey[:], row, op.putFn)
	case slDistrict:
		next := int(binary.LittleEndian.Uint32(row))
		if next <= 1 {
			tx.Commit(op.commitFn)
			return
		}
		op.stage = slLines
		wh.orderLines[d].Scan(tx, olKey(d, max(next-10, 1), 0), 60, op.pairs[:0], op.scanFn)
	case slStock:
		if ok && binary.LittleEndian.Uint32(row) < op.threshold {
			op.low++
		}
		op.checkStock(op.next + 1)
	}
}

// wrote goes on from a finished Put.
func (op *txOp) wrote(err error) {
	if err != nil {
		op.fail()
		return
	}
	wh, tx, d := op.wh, op.tx, op.d
	switch op.stage {
	case payWarehousePut:
		op.stage = payDistrict
		wh.dTbl.Get(tx, op.dkey[:], op.getFn)
	case payDistrictPut:
		op.stage = payCustomer
		op.cwh.cTbl.Get(tx, op.ckey[:], op.getFn)
	case payCustomerPut:
		w := op.w
		w.histSeq++
		binary.LittleEndian.PutUint64(op.hrow[:], op.amount)
		binary.LittleEndian.PutUint64(op.key[:], w.histSeq<<8|uint64(wh.id))
		op.stage = payHistory
		wh.histTbl.Put(tx, op.key[:], op.hrow[:], op.putFn)
	case payHistory, dlCustomerPut:
		if op.stage == dlCustomerPut {
			op.stage = dlCommit
		}
		tx.Commit(op.commitFn)
	case dlOrderPut:
		op.stage = dlLines
		wh.orderLines[d].Scan(tx, olKey(d, op.oid, 0), 15, op.pairs[:0], op.scanFn)
	}
}

// scanned takes the pairs a Scan returned, keeping the slice for the next.
func (op *txOp) scanned(pairs []btree.Pair, err error) {
	if err != nil {
		op.fail()
		return
	}
	op.pairs = pairs
	wh, tx, d := op.wh, op.tx, op.d
	switch op.stage {
	case osByName:
		op.lookupOrder()
	case osLines:
		tx.Commit(op.commitFn)
	case dlNewOrder:
		if len(pairs) == 0 || pairs[0].Key>>40 != uint64(d) {
			// No undelivered orders in this district.
			op.stage = dlEmpty
			tx.Commit(op.commitFn)
			return
		}
		op.nokey = pairs[0].Key
		op.oid = int(op.nokey & (1<<40 - 1))
		op.stage = dlDelete
		wh.newOrders[d].Delete(tx, op.nokey, op.delFn)
	case dlLines:
		for _, l := range pairs {
			if l.Key>>8 == uint64(d)<<32|uint64(op.oid) {
				op.amount += uint64(binary.LittleEndian.Uint32(l.Val[8:]))
			}
		}
		binary.LittleEndian.PutUint64(op.ckey[:], custID(d, op.cid))
		op.stage = dlCustomer
		wh.cTbl.Get(tx, op.ckey[:], op.getFn)
	case slLines:
		// Distinct item ids in scan order: the stock Gets below are
		// simulation events, so their order must be a function of the
		// seed (a map's iteration order is not).
		for _, l := range pairs {
			if int(l.Key>>40) != d {
				break
			}
			if id := binary.LittleEndian.Uint32(l.Val); !slices.Contains(op.ids, id) {
				op.ids = append(op.ids, id)
			}
		}
		op.checkStock(0)
	}
}

// deleted goes on from Delivery's Delete of the new-order entry.
func (op *txOp) deleted(_ bool, err error) {
	if err != nil {
		op.fail()
		return
	}
	op.stage = dlOrder
	op.wh.orders[op.d].Get(op.tx, op.nokey, op.getFn)
}

// committed takes the commit's answer: Delivery goes on to the next
// district (after an empty one whatever the answer), the others finish.
func (op *txOp) committed(err error) {
	switch {
	case op.stage == dlEmpty || op.stage == dlCommit && err == nil:
		op.d++
		op.deliver()
	default:
		op.finish(err == nil)
	}
}

// lookupOrder is OrderStatus's second half, once the customer was found:
// the district's most recent order and its lines.
func (op *txOp) lookupOrder() {
	op.stage = osDistrict
	op.wh.dTbl.Get(op.tx, op.dkey[:], op.getFn)
}

// deliver starts district d's delivery transaction, or finishes after the
// last district.
func (op *txOp) deliver() {
	if op.d > op.w.Cfg.Districts {
		op.finish(true)
		return
	}
	op.amount = 0
	op.tx = op.m.Begin(op.thread)
	op.stage = dlNewOrder
	op.wh.newOrders[op.d].Scan(op.tx, orderKey(op.d, 0), 1, op.pairs[:0], op.scanFn)
}

// checkStock reads the stock row of StockLevel's item i, or commits once
// every item was checked.
func (op *txOp) checkStock(i int) {
	if i == len(op.ids) {
		op.tx.Commit(op.commitFn)
		return
	}
	op.next = i
	binary.LittleEndian.PutUint64(op.key[:], uint64(op.ids[i]))
	op.stage = slStock
	op.wh.sTbl.Get(op.tx, op.key[:], op.getFn)
}
