// Package nvram models the paper's non-volatile DRAM (§2.1): per-machine
// memory whose contents survive process crashes and — thanks to the
// distributed-UPS save path — power failures. It also implements the
// energy/time model behind Figure 1 (energy to copy one GB from DRAM to
// SSD as a function of the number of SSDs).
package nvram

import (
	"fmt"

	"farm/internal/sim"
)

// RegionID names a memory region within a Store. The FaRM global address
// space is built out of these regions (§3).
type RegionID uint32

// Store is one machine's non-volatile memory: a set of byte regions. The
// Store object deliberately lives *outside* the simulated process state, so
// killing a FaRM process leaves its Store intact — exactly the durability
// contract of battery-backed DRAM. Only Wipe (modelling machine replacement
// or losing more than the save window allows) destroys data.
type Store struct {
	regions map[RegionID][]byte
	// onUse holds the sizes of regions allocated with AllocateOnUse whose
	// bytes nobody has asked for yet. Such a region is all zeroes, so the
	// simulator need not spend host memory on it until someone looks.
	onUse map[RegionID]int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{regions: make(map[RegionID][]byte), onUse: make(map[RegionID]int)}
}

func (s *Store) checkNew(id RegionID, size int) error {
	if s.Has(id) {
		return fmt.Errorf("nvram: region %d already allocated", id)
	}
	if size <= 0 {
		return fmt.Errorf("nvram: invalid region size %d", size)
	}
	return nil
}

// Allocate creates a zeroed region of the given size. It is an error if the
// region already exists.
func (s *Store) Allocate(id RegionID, size int) ([]byte, error) {
	if err := s.checkNew(id, size); err != nil {
		return nil, err
	}
	b := make([]byte, size)
	s.regions[id] = b
	return b, nil
}

// AllocateOnUse is Allocate for a region that may never be touched: the
// region exists from now on (Has, RegionIDs and TotalBytes count it), but
// its zeroed bytes are made by the first Region call, be it the owner's or
// a one-sided verb landing in it.
func (s *Store) AllocateOnUse(id RegionID, size int) error {
	if err := s.checkNew(id, size); err != nil {
		return err
	}
	s.onUse[id] = size
	return nil
}

// Free releases a region. Freeing a missing region is a no-op (idempotent
// cleanup after failed allocations).
func (s *Store) Free(id RegionID) {
	delete(s.regions, id)
	delete(s.onUse, id)
}

// Region returns the backing bytes of a region, or nil if absent.
func (s *Store) Region(id RegionID) []byte {
	b, ok := s.regions[id]
	if !ok {
		if size, lazy := s.onUse[id]; lazy {
			b = make([]byte, size)
			s.regions[id] = b
			delete(s.onUse, id)
		}
	}
	return b
}

// Has reports whether the region exists.
func (s *Store) Has(id RegionID) bool {
	_, ok := s.regions[id]
	if !ok {
		_, ok = s.onUse[id]
	}
	return ok
}

// RegionIDs returns the ids of all allocated regions (unordered).
func (s *Store) RegionIDs() []RegionID {
	out := make([]RegionID, 0, len(s.regions)+len(s.onUse))
	for id := range s.regions {
		out = append(out, id)
	}
	for id := range s.onUse {
		out = append(out, id)
	}
	return out
}

// TotalBytes returns the sum of region sizes.
func (s *Store) TotalBytes() int {
	total := 0
	for _, b := range s.regions {
		total += len(b)
	}
	for _, size := range s.onUse {
		total += size
	}
	return total
}

// Wipe destroys all regions, modelling loss of the machine's memory (e.g.
// the machine is replaced, or the battery could not cover the save).
func (s *Store) Wipe() {
	s.regions = make(map[RegionID][]byte)
	s.onUse = make(map[RegionID]int)
}

// SaveModel captures the distributed-UPS save path of §2.1: on power
// failure, the battery powers the CPUs and SSDs while memory is streamed to
// the SSDs. Defaults are calibrated to the paper's measurements: an
// unoptimized save of 1 GB over a single M.2 SSD consumes ~110 J, of which
// ~90 J is the two CPU sockets.
type SaveModel struct {
	// CPUPowerWatts is the power draw of the CPU sockets during the save.
	CPUPowerWatts float64
	// AuxPowerWattsPerSSD is the incremental draw per active SSD (device
	// plus DRAM refresh attributable to the longer save window).
	AuxPowerWattsPerSSD float64
	// SSDBandwidthGBps is the sequential write bandwidth of one SSD; SSDs
	// save disjoint memory ranges in parallel.
	SSDBandwidthGBps float64
	// CostPerJoule is the provisioned Li-ion UPS cost ($/J), $0.005 in the
	// paper's OCS Local Energy Storage estimate.
	CostPerJoule float64
}

// DefaultSaveModel reproduces the paper's prototype measurements.
func DefaultSaveModel() SaveModel {
	return SaveModel{
		CPUPowerWatts:       180, // two E5-2650 sockets during the save
		AuxPowerWattsPerSSD: 40,
		SSDBandwidthGBps:    2.0, // M.2 PCIe sequential write
		CostPerJoule:        0.005,
	}
}

// SaveTime returns how long saving gb gigabytes over ssds parallel SSDs
// takes.
func (m SaveModel) SaveTime(gb float64, ssds int) sim.Time {
	if ssds < 1 {
		ssds = 1
	}
	seconds := gb / (m.SSDBandwidthGBps * float64(ssds))
	return sim.Time(seconds * float64(sim.Second))
}

// EnergyPerGB returns the Joules needed to save one GB with the given
// number of SSDs (the y-axis of Figure 1).
func (m SaveModel) EnergyPerGB(ssds int) float64 {
	if ssds < 1 {
		ssds = 1
	}
	t := 1.0 / (m.SSDBandwidthGBps * float64(ssds)) // seconds per GB
	power := m.CPUPowerWatts + m.AuxPowerWattsPerSSD*float64(ssds)
	return power * t
}

// CostPerGB returns the UPS energy cost in dollars per GB of protected
// DRAM (the paper quotes $0.55/GB worst case).
func (m SaveModel) CostPerGB(ssds int) float64 {
	return m.EnergyPerGB(ssds) * m.CostPerJoule
}
