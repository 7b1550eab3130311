package core

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"farm/internal/proto"
	"farm/internal/sim"
)

// These tests check the transactional guarantees as properties over
// randomized concurrent histories, with and without failure injection.
// Determinism of the simulator means any failure reproduces exactly from
// the logged seed.

func u64(b []byte) uint64  { return binary.LittleEndian.Uint64(b) }
func u64b(v uint64) []byte { b := make([]byte, 8); binary.LittleEndian.PutUint64(b, v); return b }

// TestLostUpdateFreedom: concurrent read-modify-write increments from many
// machines/threads; the final counter must equal the number of commits
// reported successful. Any lost update or phantom commit breaks equality.
func TestLostUpdateFreedom(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		o := Options{NumMachines: 5, Seed: seed}
		c := New(o)
		if _, err := c.CreateRegions(0, 1, 0); err != nil {
			t.Fatal(err)
		}
		addr := writeObject(t, c, c.Machine(0), u64b(0))

		committed := 0
		attempts := 0
		const perDriver = 40
		for mi := 0; mi < 5; mi++ {
			for th := 0; th < 2; th++ {
				m := c.Machine(mi)
				th := th
				var drive func(n int)
				drive = func(n int) {
					if n >= perDriver || !m.Alive() {
						return
					}
					attempts++
					tx := m.Begin(th)
					tx.Read(addr, 8, func(data []byte, err error) {
						if err != nil {
							c.Eng.After(10*sim.Microsecond, func() { drive(n) })
							return
						}
						tx.Write(addr, u64b(u64(data)+1))
						tx.Commit(func(err error) {
							if err == nil {
								committed++
								drive(n + 1)
							} else {
								c.Eng.After(sim.Time(c.Eng.Rand().Intn(20)+1)*sim.Microsecond,
									func() { drive(n) })
							}
						})
					})
				}
				drive(0)
			}
		}
		c.RunFor(5 * sim.Second)
		got := u64(readObject(t, c, c.Machine(1), addr, 8))
		if got != uint64(committed) {
			t.Fatalf("seed %d: counter=%d committed=%d attempts=%d", seed, got, committed, attempts)
		}
		if committed != 5*2*perDriver {
			t.Fatalf("seed %d: drivers did not finish: %d", seed, committed)
		}
	}
}

// TestAtomicTransfersPreserveTotal: random transfers between accounts
// (multi-object read-write transactions) with a machine killed mid-run.
// The sum of all account balances is invariant under serializable
// execution; partial (non-atomic) commits would break it.
func TestAtomicTransfersPreserveTotal(t *testing.T) {
	const accounts = 16
	const initial = 1000
	for _, seed := range []uint64{5, 6} {
		o := recoveryOpts()
		o.Seed = seed
		c := New(o)
		if _, err := c.CreateRegions(0, 2, 0); err != nil {
			t.Fatal(err)
		}
		var addrs []proto.Addr
		for i := 0; i < accounts; i++ {
			addrs = append(addrs, writeObject(t, c, c.Machine(i%6), u64b(initial)))
		}
		c.RunFor(20 * sim.Millisecond)

		// Drivers on machines 0-2 (machine 4 will be killed).
		for mi := 0; mi < 3; mi++ {
			m := c.Machine(mi)
			rng := sim.NewRand(seed*100 + uint64(mi))
			var drive func(n int)
			drive = func(n int) {
				if n >= 150 || !m.Alive() {
					return
				}
				a := addrs[rng.Intn(accounts)]
				b := addrs[rng.Intn(accounts)]
				if a == b {
					c.Eng.After(sim.Microsecond, func() { drive(n + 1) })
					return
				}
				amount := uint64(rng.Intn(50))
				tx := m.Begin(n % m.Threads())
				tx.Read(a, 8, func(da []byte, err error) {
					if err != nil {
						c.Eng.After(20*sim.Microsecond, func() { drive(n) })
						return
					}
					tx.Read(b, 8, func(db []byte, err error) {
						if err != nil {
							c.Eng.After(20*sim.Microsecond, func() { drive(n) })
							return
						}
						if u64(da) < amount {
							tx.Commit(func(error) { drive(n + 1) })
							return
						}
						tx.Write(a, u64b(u64(da)-amount))
						tx.Write(b, u64b(u64(db)+amount))
						tx.Commit(func(error) { drive(n + 1) })
					})
				})
			}
			drive(0)
		}
		// Kill a machine mid-run.
		c.Eng.After(3*sim.Millisecond, func() { c.Kill(4) })
		c.RunFor(2 * sim.Second)

		var total uint64
		for _, a := range addrs {
			total += u64(readObject(t, c, c.Machine(0), a, 8))
		}
		if total != accounts*initial {
			t.Fatalf("seed %d: total=%d want %d (atomicity violated)", seed, total, accounts*initial)
		}
	}
}

// TestVersionsNeverRegress: object versions are strictly monotonic at the
// primary across updates and failures.
func TestVersionsNeverRegress(t *testing.T) {
	o := recoveryOpts()
	c := New(o)
	if _, err := c.CreateRegions(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	addr := writeObject(t, c, c.Machine(0), u64b(7))

	var lastVer uint64
	violations := 0
	m := c.Machine(2)
	var drive func(n int)
	drive = func(n int) {
		if n >= 300 || !m.Alive() {
			return
		}
		tx := m.Begin(0)
		tx.Read(addr, 8, func(data []byte, err error) {
			if err != nil {
				c.Eng.After(50*sim.Microsecond, func() { drive(n) })
				return
			}
			tx.Write(addr, u64b(u64(data)+1))
			tx.Commit(func(err error) {
				if err == nil {
					// Observe version through a lock-free read.
					m.LockFreeRead(1, addr, 8, func([]byte, error) {})
				}
				drive(n + 1)
			})
		})
	}
	drive(0)
	// Sample versions continuously at the (current) primary.
	var sample func()
	sample = func() {
		rm := c.Machine(0).mapping(addr.Region)
		if rm != nil {
			p := c.Machine(int(rm.Replicas[0]))
			if p.Alive() {
				if rep := p.replica(addr.Region); rep != nil {
					word := rep.mem.ReadHeader(int(addr.Off))
					v := word & (1<<62 - 1)
					if v < lastVer {
						violations++
					}
					if v > lastVer {
						lastVer = v
					}
				}
			}
		}
		c.Eng.After(100*sim.Microsecond, sample)
	}
	c.Eng.After(sim.Millisecond, sample)
	c.Eng.After(5*sim.Millisecond, func() {
		// Kill a backup to force recovery mid-stream.
		rm := c.Machine(0).mapping(addr.Region)
		for _, r := range rm.Replicas[1:] {
			if int(r) != 0 && int(r) != 2 {
				c.Kill(int(r))
				break
			}
		}
	})
	c.RunFor(500 * sim.Millisecond)
	if violations > 0 {
		t.Fatalf("%d version regressions observed", violations)
	}
	if lastVer < 50 {
		t.Fatalf("too few updates observed: version %d", lastVer)
	}
}

// TestRandomKillSchedulesQuick: random single-machine kill times against a
// running transfer workload; the balance invariant and cluster liveness
// must hold for every schedule.
func TestRandomKillSchedulesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	f := func(seed uint64, killAtMs uint8, victimRaw uint8) bool {
		o := recoveryOpts()
		o.Seed = seed%1000 + 1
		c := New(o)
		if _, err := c.CreateRegions(0, 1, 0); err != nil {
			return false
		}
		var addrs []proto.Addr
		for i := 0; i < 4; i++ {
			var done bool
			tx := c.Machine(0).Begin(0)
			tx.Alloc(8, u64b(100), nil, func(a proto.Addr, err error) {
				if err != nil {
					return
				}
				addrs = append(addrs, a)
				tx.Commit(func(error) { done = true })
			})
			deadline := c.Eng.Now() + sim.Second
			for !done && c.Eng.Now() < deadline {
				if !c.Eng.Step() {
					break
				}
			}
			if !done {
				return false
			}
		}
		c.RunFor(10 * sim.Millisecond)
		victim := 1 + int(victimRaw)%5 // never the CM, for liveness of this check
		m := c.Machine((victim + 1) % 6)
		if victim == (victim+1)%6 {
			return false
		}
		rng := sim.NewRand(seed + 42)
		var drive func(n int)
		drive = func(n int) {
			if n > 100 || !m.Alive() {
				return
			}
			a, b := addrs[rng.Intn(4)], addrs[rng.Intn(4)]
			if a == b {
				drive(n + 1)
				return
			}
			tx := m.Begin(0)
			tx.Read(a, 8, func(da []byte, err error) {
				if err != nil {
					c.Eng.After(100*sim.Microsecond, func() { drive(n + 1) })
					return
				}
				tx.Read(b, 8, func(db []byte, err error) {
					if err != nil {
						c.Eng.After(100*sim.Microsecond, func() { drive(n + 1) })
						return
					}
					tx.Write(a, u64b(u64(da)-1))
					tx.Write(b, u64b(u64(db)+1))
					tx.Commit(func(error) { drive(n + 1) })
				})
			})
		}
		drive(0)
		c.Eng.After(sim.Time(killAtMs%30)*sim.Millisecond+sim.Millisecond, func() { c.Kill(victim) })
		c.RunFor(800 * sim.Millisecond)

		var total uint64
		for _, a := range addrs {
			var got []byte
			done := false
			tx := m.Begin(1)
			tx.Read(a, 8, func(data []byte, err error) {
				if err == nil {
					got = data
				}
				done = true
			})
			deadline := c.Eng.Now() + sim.Second
			for !done && c.Eng.Now() < deadline {
				if !c.Eng.Step() {
					break
				}
			}
			if got == nil {
				return false // liveness violated
			}
			total += u64(got)
		}
		return total == 400
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
