package core

import (
	"fmt"
	"reflect"
	"strings"
	"unsafe"
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
// taken and not given back, and every field of those owners that looks like
// a free list written by hand. None is left once the load stopped and the
// cluster drained.
func (m *Machine) OpenPools() []string {
	open := OpenPoolsOf(m)
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
