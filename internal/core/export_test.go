package core

import (
	"fmt"
	"reflect"
	"strings"
	"unsafe"

	"farm/internal/ring"
)

// ChunkPool reports, per size class, the free chunks in m's chunk pool and
// the chunks its transactions hold.
func (m *Machine) ChunkPool() (free, inUse []int) {
	p := &m.chunks
	for c := range p.free {
		free, inUse = append(free, len(p.free[c])), append(inUse, p.inUse[c])
	}
	return free, inUse
}

// OpenPools reports every pool of m — its own, its log writers' and its
// chunk pool's size classes, its lease manager's aside — that has objects
// taken and not given back, every field of those owners that looks like a
// free list written by hand, and every Tx waiting in m's pool that pins
// application bytes. None is left once the load stopped and the cluster
// drained.
func (m *Machine) OpenPools() []string {
	open := append(OpenPoolsOf(m), m.pooledTxPins()...)
	for c, n := range m.chunks.inUse {
		if n != 0 {
			open = append(open, fmt.Sprintf("%d chunks of class %d", n, c))
		}
	}
	for _, p := range m.peers {
		for _, s := range OpenPoolsOf(p.logW) {
			open = append(open, fmt.Sprintf("log writer to m%d: %s", p.id, s))
		}
	}
	return open
}

// pooledTxPins reports every Tx waiting in m's pool that holds a commit's
// write list, or a write-slab element whose Value — an application's bytes
// — is not cleared. It takes them out of the pool and puts them back in the
// order they were in.
func (m *Machine) pooledTxPins() []string {
	var pins []string
	held := make([]*Tx, 0, m.txs.Len())
	for m.txs.Len() > 0 {
		held = append(held, m.txs.Get())
	}
	for i := len(held) - 1; i >= 0; i-- {
		t := held[i]
		lists, values := 0, 0
		for _, g := range t.groups[:cap(t.groups)] {
			if g.primWrites != nil || g.backupWrites != nil {
				lists++
			}
		}
		for _, w := range t.writeSlab[:cap(t.writeSlab)] {
			if w.Value != nil {
				values++
			}
		}
		if lists > 0 || values > 0 {
			pins = append(pins, fmt.Sprintf("a pooled Tx holds %d participants' write lists and %d written values", lists, values))
		}
		m.txs.Put(t)
	}
	return pins
}

// RingPages reports the pages m's log rings hold, the pages their readers'
// windows span, and the pages in m's spares.
func (m *Machine) RingPages() (held, spanned, spares int) {
	for _, p := range m.peers {
		held += p.logR.mem.HeldBytes() / ring.PageSize
		if p.logR.rd != nil {
			spanned += p.logR.rd.WindowPages()
		}
	}
	return held, spanned, m.ringSpares.HeldBytes() / ring.PageSize
}

// HoldLog reserves the free space of m's log at dst, so that a commit with a
// record for dst is refused for log space (ErrNoSpace), and returns what
// gives it back.
func (m *Machine) HoldLog(dst int) (release func()) {
	w, n := m.peer(dst).logW, 0
	for w.Reserve(0) {
		n++
	}
	return func() {
		for range n {
			w.Release(0)
		}
	}
}

// LeaseMessagesInUse is the objects m's lease manager has out of its pools:
// lease traffic never stops, so it is bounded by the messages in flight.
func (m *Machine) LeaseMessagesInUse() int {
	n := 0
	forEachPool(m.lease, func(_ string, inUse int) { n += inUse })
	return n
}

// OpenPoolsOf reports every pool field of the struct v points to that has
// objects in use, and every field that looks like a free list written by
// hand: a slice of pointers named free or ending in Free.
func OpenPoolsOf(v any) []string {
	var open []string
	forEachPool(v, func(name string, inUse int) {
		switch {
		case inUse < 0:
			open = append(open, name+": a free list written by hand")
		case inUse > 0:
			open = append(open, fmt.Sprintf("%s: %d in use", name, inUse))
		}
	})
	return open
}

// forEachPool calls fn with the in-use count of every field of the struct v
// points to that has an InUse method (pool.Free), and with -1 for a field
// that looks like a free list written by hand.
func forEachPool(v any, fn func(name string, inUse int)) {
	s := reflect.ValueOf(v).Elem()
	for i := 0; i < s.NumField(); i++ {
		f, ft := s.Field(i), s.Type().Field(i)
		p := reflect.NewAt(ft.Type, unsafe.Pointer(f.UnsafeAddr())).Interface()
		if pool, ok := p.(interface{ InUse() int }); ok {
			fn(ft.Name, pool.InUse())
		} else if ft.Type.Kind() == reflect.Slice && ft.Type.Elem().Kind() == reflect.Pointer &&
			(ft.Name == "free" || strings.HasSuffix(ft.Name, "Free")) {
			fn(ft.Name, -1)
		}
	}
}
