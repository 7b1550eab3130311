package core

import (
	"slices"
	"testing"

	"farm/internal/sim"
)

func TestJoinAddsMember(t *testing.T) {
	c, _ := testCluster(t, Options{NumMachines: 4, Seed: 71})
	addr := writeObject(t, c, c.Machine(1), []byte("pre-join"))

	nj := c.Join()
	c.RunFor(100 * sim.Millisecond)

	// Everyone, including the newcomer, agrees on a configuration that
	// contains it.
	cfg := c.Machine(0).ConfigID()
	if cfg < 2 {
		t.Fatalf("no join reconfiguration: config %d", cfg)
	}
	for _, m := range c.Machines {
		if m.ConfigID() != cfg {
			t.Fatalf("machine %d at config %d, want %d", m.ID, m.ConfigID(), cfg)
		}
		if !m.config.Member(uint16(nj.ID)) {
			t.Fatalf("machine %d does not see the newcomer", m.ID)
		}
	}
	// The newcomer can read existing data...
	var got []byte
	nj.LockFreeRead(0, addr, 8, func(data []byte, err error) {
		if err != nil {
			t.Errorf("newcomer read: %v", err)
		}
		got = append([]byte(nil), data...) // data is valid until this returns
	})
	runUntil(t, c, sim.Second, func() bool { return got != nil })
	if string(got) != "pre-join" {
		t.Fatalf("newcomer read %q", got)
	}
	// ...and coordinate its own transactions.
	addr2 := writeObject(t, c, nj, []byte("by-newcomer"))
	if got := readObject(t, c, c.Machine(2), addr2, 11); string(got) != "by-newcomer" {
		t.Fatalf("newcomer-coordinated write: %q", got)
	}
}

func TestJoinBecomesPlacementTarget(t *testing.T) {
	c, _ := testCluster(t, Options{NumMachines: 4, Seed: 73})
	nj := c.Join()
	c.RunFor(100 * sim.Millisecond)

	// New regions must start landing on the (least-loaded) newcomer.
	regions, err := c.CreateRegions(0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosted := 0
	for _, r := range regions {
		for _, rep := range c.Machine(0).mapping(r).Replicas {
			if int(rep) == nj.ID {
				hosted++
			}
		}
	}
	if hosted == 0 {
		t.Fatal("newcomer received no region replicas")
	}
}

func TestJoinedMachineParticipatesInRecovery(t *testing.T) {
	o := Options{NumMachines: 4, Seed: 79, LeaseDuration: 5 * sim.Millisecond}
	c, _ := testCluster(t, o)
	nj := c.Join()
	c.RunFor(100 * sim.Millisecond)
	if !c.Machine(0).config.Member(uint16(nj.ID)) {
		t.Fatal("join did not complete")
	}
	// Allocate data spread over the grown cluster, then kill an original
	// machine; the newcomer should absorb re-replication work.
	if _, err := c.CreateRegions(0, 4, 0); err != nil {
		t.Fatal(err)
	}
	addr := writeObject(t, c, c.Machine(1), []byte("grow-then-fail"))
	c.RunFor(20 * sim.Millisecond)
	c.Kill(3)
	c.RunFor(500 * sim.Millisecond)
	for _, m := range c.Machines {
		if m.Alive() && m.config.Member(3) {
			t.Fatalf("machine %d still sees the victim", m.ID)
		}
	}
	if got := readObject(t, c, nj, addr, 14); string(got) != "grow-then-fail" {
		t.Fatalf("read after kill via newcomer: %q", got)
	}
}

// TestJoinedMachineGetsLogPairEverywhere: a machine added after boot gets a
// log pair on every machine there is — members, and an earlier joiner — and
// they on it; commits run through the new pairs in both directions.
func TestJoinedMachineGetsLogPairEverywhere(t *testing.T) {
	c, _ := testCluster(t, Options{NumMachines: 4, Seed: 83})
	first := c.Join()
	c.RunFor(100 * sim.Millisecond)
	second := c.Join()
	c.RunFor(100 * sim.Millisecond)
	for _, m := range c.Machines {
		if !m.config.Member(uint16(second.ID)) {
			t.Fatalf("machine %d does not see the second newcomer", m.ID)
		}
		if got := len(m.LogSpaceReport()); got != len(c.Machines) {
			t.Fatalf("machine %d has log writers toward %d machines, want %d", m.ID, got, len(c.Machines))
		}
	}
	appended := func(from *Machine, to int) int { return from.LogSpaceReport()[to][2] }

	// New regions land on the newcomers; find one the second hosts and the
	// first does not, and commit to it from the first.
	regions, err := c.CreateRegions(0, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	var target uint32
	for _, r := range regions {
		hosts := c.RegionReplicas(r)
		if slices.Contains(hosts, second.ID) && !slices.Contains(hosts, first.ID) {
			target = r
		}
	}
	if target == 0 {
		t.Fatalf("no region on machine %d alone of the newcomers", second.ID)
	}
	before := appended(first, second.ID)
	addr := writeObjectIn(t, c, first, target, []byte("joiner to joiner"))
	if appended(first, second.ID) == before {
		t.Fatalf("machine %d committed to region %d without writing machine %d's log", first.ID, target, second.ID)
	}
	if got := readObject(t, c, c.Machine(1), addr, 16); string(got) != "joiner to joiner" {
		t.Fatalf("read back %q", got)
	}
	// And the other way: the second newcomer coordinates a write to the
	// boot-time region, whose replicas are boot-time machines.
	prim := c.Machine(0).PrimaryOf(1)
	before = appended(second, prim)
	writeObjectIn(t, c, second, 1, []byte("to the old guard"))
	if appended(second, prim) == before {
		t.Fatalf("machine %d committed to region 1 without writing its primary's log", second.ID)
	}
}
