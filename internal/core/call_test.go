package core

import (
	"errors"
	"testing"

	"farm/internal/proto"
	"farm/internal/sim"
)

// awaitNewCM runs until every alive machine has committed a configuration
// whose CM is not the dead one.
func awaitNewCM(t *testing.T, c *Cluster, dead int) {
	t.Helper()
	runUntil(t, c, sim.Second, func() bool {
		for _, m := range c.Machines {
			if m.alive && (int(m.config.CM) == dead || !m.configCommitted) {
				return false
			}
		}
		return true
	})
}

// TestMappingFetchSurvivesCMDeath: a MAPPING-REQ sent as the CM dies is
// never answered. The configuration without the CM fails the call, which
// wakes the fetch's waiter, and a later fetch of the same region goes to the
// new CM instead of queueing behind the lost one.
func TestMappingFetchSurvivesCMDeath(t *testing.T) {
	c, region := testCluster(t, recoveryOpts())
	c.RunFor(20 * sim.Millisecond)
	m := c.Machine(4)
	woke := false
	m.fetchMapping(region, func() { woke = true })
	c.Kill(0) // machine 0 is the CM
	runUntil(t, c, 200*sim.Millisecond, func() bool { return woke })
	if n := c.Counters.Get("mapping_fetch_stalled"); n != 1 {
		t.Fatalf("mapping_fetch_stalled = %d, want 1", n)
	}
	awaitNewCM(t, c, 0)
	again := false
	m.fetchMapping(region, func() { again = true })
	runUntil(t, c, 500*sim.Millisecond, func() bool { return again })
	if m.mapping(region) == nil {
		t.Fatal("the second fetch brought no mapping")
	}
	// Recovery's REGIONS-ACTIVE call to the new CM may still be on its way.
	runUntil(t, c, 10*sim.Millisecond, func() bool { return len(m.calls) == 0 })
}

// TestRegionAllocationSurvivesCMDeath: an ALLOC-REGION-REQ sent as the CM
// dies reports ErrUnavailable instead of never calling back, and a retry
// once the new CM is in place returns a region.
func TestRegionAllocationSurvivesCMDeath(t *testing.T) {
	c, _ := testCluster(t, recoveryOpts())
	c.RunFor(20 * sim.Millisecond)
	m := c.Machine(3)
	done := false
	var err error
	m.AllocateRegion(0, func(_ uint32, e error) { done, err = true, e })
	c.Kill(0)
	runUntil(t, c, 500*sim.Millisecond, func() bool { return done })
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("allocation at a dying CM: %v, want %v", err, ErrUnavailable)
	}
	if n := c.Counters.Get("region_alloc_stalled"); n != 1 {
		t.Fatalf("region_alloc_stalled = %d, want 1", n)
	}
	awaitNewCM(t, c, 0)
	if _, err := c.CreateRegions(3, 1, 0); err != nil {
		t.Fatalf("retry after the new configuration: %v", err)
	}
	// Recovery's REGIONS-ACTIVE call to the new CM may still be on its way.
	runUntil(t, c, 10*sim.Millisecond, func() bool { return len(m.calls) == 0 })
}

// TestRegionAllocationOutlivesALostPrepare: each prepare of a region
// allocation is a call of the CM's, so one whose answer never comes ends
// the round instead of holding it open. Whether the first PREPARED is lost
// or a replica dies between PREPARE and PREPARED, the call fails and the
// CM aborts: the surviving replicas free the region, the CM commits no
// mapping and keeps no call open, the requester gets an error, and the
// next allocation succeeds.
func TestRegionAllocationOutlivesALostPrepare(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill bool
	}{{"lost PREPARED", false}, {"replica killed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := testCluster(t, recoveryOpts())
			c.RunFor(20 * sim.Millisecond)
			cm, requester := c.Machine(0), c.Machine(3)
			region := uint32(len(cm.cm.regions))
			var prepared []int
			victim := -1
			for _, m := range c.Machines {
				h := m.tp.reg.Lookup(&proto.AllocRegionPrepare{})
				fn, id := h.Fn, m.ID
				h.Fn = func(src int, msg interface{}) {
					if tc.kill && victim < 0 && id != cm.ID && id != requester.ID {
						victim = id
						c.Kill(id)
						return
					}
					prepared = append(prepared, id)
					fn(src, msg)
				}
			}
			if !tc.kill {
				h := cm.tp.reg.Lookup(&proto.AllocRegionPrepared{})
				fn := h.Fn
				h.Fn = func(src int, msg interface{}) {
					if victim < 0 {
						victim = src
						return
					}
					fn(src, msg)
				}
			}

			done := false
			var err error
			requester.AllocateRegion(0, func(_ uint32, e error) { done, err = true, e })
			runUntil(t, c, 500*sim.Millisecond, func() bool { return done })
			if err == nil {
				t.Fatal("the allocation succeeded without an answer from every replica")
			}
			if victim < 0 {
				t.Fatal("no prepare was lost")
			}
			if tc.kill {
				awaitNewCM(t, c, victim)
			}
			c.RunFor(50 * sim.Millisecond)
			for _, id := range prepared {
				if c.Machine(id).store.Region(toNVRAM(region)) != nil {
					t.Errorf("m%d still holds the aborted region %d", id, region)
				}
			}
			if e := cm.cm.region(region); e == nil || e.rm != nil {
				t.Fatalf("the CM's entry for region %d: %+v, want one with no mapping", region, e)
			}
			if len(cm.calls) != 0 {
				t.Fatalf("the CM has calls open: %v", cm.OpenCalls())
			}
			if _, err := c.CreateRegions(requester.ID, 1, 0); err != nil {
				t.Fatalf("the next allocation: %v", err)
			}
		})
	}
}
