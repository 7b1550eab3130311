package core

import (
	"errors"
	"testing"

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
	if len(m.calls) != 0 {
		t.Fatalf("%d calls left", len(m.calls))
	}
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
	if len(m.calls) != 0 {
		t.Fatalf("%d calls left", len(m.calls))
	}
}
