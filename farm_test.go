package farm

import (
	"errors"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	c := NewCluster(Options{NumMachines: 5, Seed: 3})
	c.MustCreateRegions(1)
	m := c.Machine(1)

	var addr Addr
	err := c.Sync(func(done func(error)) {
		tx := m.Begin(0)
		tx.Alloc(8, []byte("8 bytes!"), nil, func(a Addr, err error) {
			if err != nil {
				done(err)
				return
			}
			addr = a
			tx.Commit(done)
		})
	})
	if err != nil {
		t.Fatalf("alloc+commit: %v", err)
	}

	var got []byte
	err = c.Sync(func(done func(error)) {
		c.Machine(3).LockFreeRead(0, addr, 8, func(data []byte, err error) {
			got = append([]byte(nil), data...) // data is valid until this returns
			done(err)
		})
	})
	if err != nil || string(got) != "8 bytes!" {
		t.Fatalf("lock-free read: %q %v", got, err)
	}
}

func TestPublicAPIConflictSurface(t *testing.T) {
	c := NewCluster(Options{NumMachines: 5, Seed: 4})
	c.MustCreateRegions(1)
	m := c.Machine(0)

	var addr Addr
	if err := c.Sync(func(done func(error)) {
		tx := m.Begin(0)
		tx.Alloc(4, []byte("init"), nil, func(a Addr, err error) {
			addr = a
			tx.Commit(done)
		})
	}); err != nil {
		t.Fatal(err)
	}

	// Two read-modify-writes racing: exactly one ErrConflict.
	errs := make(chan error, 2) // buffered; filled synchronously by sim
	launch := func(mi int) {
		tx := c.Machine(mi).Begin(0)
		tx.Read(addr, 4, func(_ []byte, err error) {
			if err != nil {
				errs <- err
				return
			}
			tx.Write(addr, []byte("mine"))
			tx.Commit(func(err error) { errs <- err })
		})
	}
	launch(1)
	launch(2)
	if !c.WaitFor(Second, func() bool { return len(errs) == 2 }) {
		t.Fatal("transactions did not finish")
	}
	var conflicts, oks int
	for i := 0; i < 2; i++ {
		switch err := <-errs; {
		case err == nil:
			oks++
		case errors.Is(err, ErrConflict):
			conflicts++
		default:
			t.Fatalf("unexpected: %v", err)
		}
	}
	if oks != 1 || conflicts != 1 {
		t.Fatalf("oks=%d conflicts=%d", oks, conflicts)
	}
}

func TestPublicAPIFailureInjection(t *testing.T) {
	c := NewCluster(Options{NumMachines: 6, Seed: 5, LeaseDuration: 5 * Millisecond})
	c.MustCreateRegions(2)
	m := c.Machine(1)

	var addr Addr
	if err := c.Sync(func(done func(error)) {
		tx := m.Begin(0)
		tx.Alloc(8, []byte("durable!"), nil, func(a Addr, err error) {
			addr = a
			tx.Commit(done)
		})
	}); err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * Millisecond)

	c.Kill(4)
	c.RunFor(300 * Millisecond)

	var got []byte
	if err := c.Sync(func(done func(error)) {
		tx := c.Machine(2).Begin(0)
		tx.Read(addr, 8, func(data []byte, err error) {
			got = data
			done(err)
		})
	}); err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable!" {
		t.Fatalf("after failure: %q", got)
	}
	if len(c.AliveMachines()) != 5 {
		t.Fatalf("alive: %v", c.AliveMachines())
	}
}
