// Package pool is the one free list of the simulation's pooled objects
// (DESIGN.md §12, "Pooled objects"). The simulation runs on one goroutine,
// so a list takes no lock.
package pool

// Free is a LIFO list of free objects of type T. Its zero value makes an
// object with new(T) when it is empty; an owner whose objects bind
// continuations sets New once, before the first Get. The owner resets an
// object as far as its next use needs before it puts it back.
type Free[T any] struct {
	// New makes an object when the list is empty; nil means new(T).
	New func() *T
	// Checked makes Put zero the object whole and hold it back for the
	// next quarantine puts, so a holder that kept a pointer past Put meets
	// nil continuations and nil owners at its next step, and the next Get
	// takes another object. Tests and chaos runs turn it on.
	Checked bool

	free  []*T
	inUse int
	// held is a checked list's quarantine, a ring whose oldest slot is
	// next: each object zeroed beside what it held when it was put.
	held []parked[T]
	next int
}

// quarantine is how many later puts a checked list holds an object back
// for. Dropping it instead (every checked Get making a fresh object) made
// chaos runs half again as slow, and so did a quarantine of 256, whose
// objects no longer fit the caches.
const quarantine = 16

type parked[T any] struct {
	v   *T
	was T
}

// Get pops the object put last, or makes one.
func (f *Free[T]) Get() *T {
	f.inUse++
	if k := len(f.free); k > 0 {
		v := f.free[k-1]
		f.free[k-1] = nil
		f.free = f.free[:k-1]
		return v
	}
	if f.New == nil {
		return new(T)
	}
	return f.New()
}

// Put returns v, which its owner has reset, to the list; a checked list
// parks it zeroed and frees, as it was put, the object parked longest.
func (f *Free[T]) Put(v *T) {
	f.inUse--
	if f.Checked {
		if f.held == nil {
			f.held = make([]parked[T], quarantine)
		}
		p := &f.held[f.next]
		f.next = (f.next + 1) % quarantine
		out := p.v
		if out != nil {
			*out = p.was
		}
		p.v, p.was = v, *v
		var zero T
		*v = zero
		if v = out; v == nil {
			return
		}
	}
	f.free = append(f.free, v)
}

// InUse reports the objects got and not put back: those in flight, and
// those dropped with a machine that died.
func (f *Free[T]) InUse() int { return f.inUse }

// Len reports how many objects wait in the list.
func (f *Free[T]) Len() int { return len(f.free) }

// Holds reports whether v waits in the list.
func (f *Free[T]) Holds(v *T) bool {
	for _, w := range f.free {
		if w == v {
			return true
		}
	}
	return false
}
