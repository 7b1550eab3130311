// Package nvram models the paper's non-volatile DRAM (§2.1): per-machine
// memory whose contents survive process crashes and — thanks to the
// distributed-UPS save path — power failures. It also implements the
// energy/time model behind Figure 1 (energy to copy one GB from DRAM to
// SSD as a function of the number of SSDs).
package nvram

import (
	"fmt"

	"farm/internal/regionmem"
	"farm/internal/sim"
)

// RegionID names a memory region within a Store. The FaRM global address
// space is built out of these regions (§3).
type RegionID uint32

// Store is one machine's non-volatile memory: a set of regions. The
// Store object deliberately lives *outside* the simulated process state, so
// killing a FaRM process leaves its Store intact — exactly the durability
// contract of battery-backed DRAM. Only Wipe (modelling machine replacement
// or losing more than the save window allows) destroys data.
//
// A region is flat — one byte slice, the form of a log ring, which
// one-sided writes target — or a data region, a regionmem.Region of blocks
// materialized on their first write, which one-sided reads target.
type Store struct {
	regions map[RegionID][]byte
	// onUse holds the sizes of regions allocated with AllocateOnUse whose
	// bytes nobody has asked for yet. Such a region is all zeroes, so the
	// simulator need not spend host memory on it until someone looks.
	onUse map[RegionID]int
	data  map[RegionID]*regionmem.Region
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{regions: make(map[RegionID][]byte), onUse: make(map[RegionID]int),
		data: make(map[RegionID]*regionmem.Region)}
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

// Allocate creates a zeroed flat region of the given size. It is an error
// if the region already exists.
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

// AllocateData creates a zeroed data region of layout's geometry, no block
// of it materialized. It is an error if the region already exists.
func (s *Store) AllocateData(id RegionID, layout regionmem.Layout) (*regionmem.Region, error) {
	if err := s.checkNew(id, layout.RegionSize); err != nil {
		return nil, err
	}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	r := regionmem.NewRegion(layout)
	s.data[id] = r
	return r, nil
}

// Free releases a region. Freeing a missing region is a no-op (idempotent
// cleanup after failed allocations).
func (s *Store) Free(id RegionID) {
	delete(s.regions, id)
	delete(s.onUse, id)
	delete(s.data, id)
}

// Region returns the bytes of a flat region, or nil if there is no flat
// region id.
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

// Data returns a data region, or nil if there is no data region id.
func (s *Store) Data(id RegionID) *regionmem.Region { return s.data[id] }

// ReadAt copies the bytes of region id from off on into dst, reporting
// false if the region is missing or does not hold them all. A read of a
// data region materializes nothing.
func (s *Store) ReadAt(id RegionID, off int, dst []byte) bool {
	if r := s.data[id]; r != nil {
		if off < 0 || off+len(dst) > r.Size() {
			return false
		}
		r.ReadAt(dst, off)
		return true
	}
	b := s.Region(id)
	if b == nil || off < 0 || off+len(dst) > len(b) {
		return false
	}
	copy(dst, b[off:])
	return true
}

// Has reports whether the region exists.
func (s *Store) Has(id RegionID) bool {
	_, ok := s.regions[id]
	if !ok {
		_, ok = s.onUse[id]
	}
	if !ok {
		_, ok = s.data[id]
	}
	return ok
}

// RegionIDs returns the ids of all allocated regions (unordered).
func (s *Store) RegionIDs() []RegionID {
	out := make([]RegionID, 0, len(s.regions)+len(s.onUse)+len(s.data))
	for id := range s.regions {
		out = append(out, id)
	}
	for id := range s.onUse {
		out = append(out, id)
	}
	for id := range s.data {
		out = append(out, id)
	}
	return out
}

// TotalBytes returns the sum of region sizes.
func (s *Store) TotalBytes() int {
	u := s.Usage()
	return u.Flat + u.Data
}

// Usage is how many bytes a store's regions reserve and how many of them
// are backed by host memory.
type Usage struct {
	// Flat and FlatMaterialized: flat regions (log rings), reserved, and
	// made (an AllocateOnUse region is made by its first Region call).
	Flat, FlatMaterialized int
	// Data and DataMaterialized: data regions, reserved, and in
	// materialized blocks.
	Data, DataMaterialized int
}

// Usage returns the store's region bytes reserved and materialized.
func (s *Store) Usage() Usage {
	var u Usage
	for _, b := range s.regions {
		u.Flat += len(b)
	}
	u.FlatMaterialized = u.Flat
	for _, size := range s.onUse {
		u.Flat += size
	}
	for _, r := range s.data {
		u.Data += r.Size()
		u.DataMaterialized += r.Materialized() * r.BlockSize()
	}
	return u
}

// Wipe destroys all regions, modelling loss of the machine's memory (e.g.
// the machine is replaced, or the battery could not cover the save).
func (s *Store) Wipe() {
	s.regions = make(map[RegionID][]byte)
	s.onUse = make(map[RegionID]int)
	s.data = make(map[RegionID]*regionmem.Region)
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
