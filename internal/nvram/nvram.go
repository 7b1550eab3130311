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
// contract of battery-backed DRAM.
//
// A region is flat — one byte slice, which one-sided writes target — or
// paged, a log ring's memory held a page at a time, which one-sided writes
// target too, or a data region, a regionmem.Region of blocks materialized
// on their first write, which one-sided reads target.
type Store struct {
	regions map[RegionID][]byte
	paged   map[RegionID]Paged
	data    map[RegionID]*regionmem.Region
}

// Paged is a region whose host memory is made a page at a time by the
// writes landing in it and given up again by its owner (package ring's
// Pages, a log ring's memory).
type Paged interface {
	// Size is the region's size in bytes.
	Size() int
	// HeldBytes is the host memory behind it.
	HeldBytes() int
	// WriteAt and ReadAt report false for bytes outside the region.
	WriteAt(b []byte, off int) bool
	ReadAt(b []byte, off int) bool
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{regions: make(map[RegionID][]byte), paged: make(map[RegionID]Paged),
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

// AllocatePaged makes mem the paged region id. It is an error if the region
// already exists.
func (s *Store) AllocatePaged(id RegionID, mem Paged) error {
	if err := s.checkNew(id, mem.Size()); err != nil {
		return err
	}
	s.paged[id] = mem
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
	delete(s.paged, id)
	delete(s.data, id)
}

// Region returns the bytes of a flat region, or nil if there is no flat
// region id.
func (s *Store) Region(id RegionID) []byte { return s.regions[id] }

// Data returns a data region, or nil if there is no data region id.
func (s *Store) Data(id RegionID) *regionmem.Region { return s.data[id] }

// ReadAt copies the bytes of region id from off on into dst, reporting
// false if the region is missing or does not hold them all. A read
// materializes nothing.
func (s *Store) ReadAt(id RegionID, off int, dst []byte) bool {
	if r := s.data[id]; r != nil {
		if off < 0 || off+len(dst) > r.Size() {
			return false
		}
		r.ReadAt(dst, off)
		return true
	}
	if p := s.paged[id]; p != nil {
		return p.ReadAt(dst, off)
	}
	b := s.regions[id]
	if b == nil || off < 0 || off+len(dst) > len(b) {
		return false
	}
	copy(dst, b[off:])
	return true
}

// WriteAt lands src in the flat or paged region id at off, reporting false
// if there is no such region or it does not hold them all. A data region
// takes no one-sided write.
func (s *Store) WriteAt(id RegionID, off int, src []byte) bool {
	if p := s.paged[id]; p != nil {
		return p.WriteAt(src, off)
	}
	b := s.regions[id]
	if b == nil || off < 0 || off+len(src) > len(b) {
		return false
	}
	copy(b[off:], src)
	return true
}

// Has reports whether the region exists.
func (s *Store) Has(id RegionID) bool {
	_, ok := s.regions[id]
	if !ok {
		_, ok = s.paged[id]
	}
	if !ok {
		_, ok = s.data[id]
	}
	return ok
}

// Usage is how many bytes a store's regions reserve and how many of them
// are backed by host memory.
type Usage struct {
	// Flat and FlatMaterialized: flat and paged regions (log rings),
	// reserved, and held (a flat region whole, a paged one in the pages
	// it holds).
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
	for _, p := range s.paged {
		u.Flat += p.Size()
		u.FlatMaterialized += p.HeldBytes()
	}
	for _, r := range s.data {
		u.Data += r.Size()
		u.DataMaterialized += r.Materialized() * r.BlockSize()
	}
	return u
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
