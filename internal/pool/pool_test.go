package pool

import "testing"

type item struct {
	n    int
	self *item
	fn   func()
}

func newItem() *item {
	it := &item{}
	it.self = it
	it.fn = func() {}
	return it
}

func TestGetPutAllocateNothing(t *testing.T) {
	f := Free[item]{New: newItem}
	f.Put(f.Get()) // the list's one slot
	if n := testing.AllocsPerRun(1000, func() { f.Put(f.Get()) }); n != 0 {
		t.Fatalf("Get+Put: %.1f allocations, want 0", n)
	}
}

func TestReuseIsLIFO(t *testing.T) {
	f := Free[item]{New: newItem}
	a, b, c := f.Get(), f.Get(), f.Get()
	if a == b || b == c || a == c {
		t.Fatal("an empty list handed out one object twice")
	}
	f.Put(a)
	f.Put(b)
	f.Put(c)
	for i, want := range []*item{c, b, a} {
		if got := f.Get(); got != want {
			t.Fatalf("get %d: not the object put %d from last", i, i)
		}
	}
	if d := f.Get(); d == a || d == b || d == c || d.self != d || d.fn == nil {
		t.Fatal("an empty list did not make a fresh object with New")
	}
}

func TestInUseCountsGetsMinusPuts(t *testing.T) {
	var f Free[item] // no New: new(item)
	if f.InUse() != 0 {
		t.Fatalf("a zero list reads %d in use", f.InUse())
	}
	a, b := f.Get(), f.Get()
	if a.self != nil {
		t.Fatal("a zero list's object came from a constructor")
	}
	if f.InUse() != 2 || f.Len() != 0 {
		t.Fatalf("after two gets: %d in use, %d free; want 2, 0", f.InUse(), f.Len())
	}
	f.Put(a)
	if f.InUse() != 1 || f.Len() != 1 || !f.Holds(a) || f.Holds(b) {
		t.Fatalf("after one put: %d in use, %d free; want 1, 1 holding it", f.InUse(), f.Len())
	}
	f.Get()
	f.Put(b)
	f.Put(a)
	if f.InUse() != 0 || f.Len() != 2 {
		t.Fatalf("after every put: %d in use, %d free; want 0, 2", f.InUse(), f.Len())
	}
}

func TestCheckedPutZeroesAndQuarantines(t *testing.T) {
	f := Free[item]{New: newItem, Checked: true}
	a := f.Get()
	a.n = 7
	f.Put(a)
	if a.n != 0 || a.self != nil || a.fn != nil {
		t.Fatalf("a checked put left %+v, want the zero item", *a)
	}
	if f.InUse() != 0 || f.Len() != 0 {
		t.Fatalf("after a checked put: %d in use, %d free; want 0, 0", f.InUse(), f.Len())
	}
	b := f.Get()
	if b == a || b.self != b || b.fn == nil {
		t.Fatal("the get after a checked put did not make a fresh object")
	}
	f.Put(b)
	for i := 2; i < quarantine; i++ {
		f.Put(f.Get())
		if f.Len() != 0 {
			t.Fatalf("%d puts freed an object, want none before %d", i, quarantine)
		}
	}
	f.Put(f.Get())
	if f.Len() != 1 || !f.Holds(a) || a.n != 7 || a.self != a || a.fn == nil {
		t.Fatalf("after %d puts: %d free, the first put back as it was: %v", quarantine, f.Len(), f.Holds(a) && a.n == 7)
	}
	if n := testing.AllocsPerRun(1000, func() { f.Put(f.Get()) }); n != 0 {
		t.Fatalf("checked Get+Put past the quarantine: %.1f allocations, want 0", n)
	}
}
