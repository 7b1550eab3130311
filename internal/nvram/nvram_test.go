package nvram

import (
	"testing"
	"testing/quick"

	"farm/internal/regionmem"
	"farm/internal/sim"
)

func TestStoreAllocateFreeRoundTrip(t *testing.T) {
	s := NewStore()
	b, err := s.Allocate(7, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 128 {
		t.Fatalf("len = %d", len(b))
	}
	b[0] = 0xAB
	if got := s.Region(7); got[0] != 0xAB {
		t.Fatal("Region does not alias allocated bytes")
	}
	if !s.Has(7) || s.Has(8) {
		t.Fatal("Has wrong")
	}
	if s.TotalBytes() != 128 {
		t.Fatalf("TotalBytes = %d", s.TotalBytes())
	}
	s.Free(7)
	if s.Has(7) || s.Region(7) != nil {
		t.Fatal("Free did not remove region")
	}
	s.Free(7) // idempotent
}

func TestStoreDoubleAllocateFails(t *testing.T) {
	s := NewStore()
	if _, err := s.Allocate(1, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Allocate(1, 16); err == nil {
		t.Fatal("double allocate succeeded")
	}
	if _, err := s.Allocate(2, 0); err == nil {
		t.Fatal("zero-size allocate succeeded")
	}
}

func TestStoreSurvivesProcessCrashSemantics(t *testing.T) {
	// The store is held by the "hardware", not the process: simulate a
	// crash by dropping every process-side reference and confirm contents
	// remain reachable through the store.
	s := NewStore()
	b, _ := s.Allocate(3, 64)
	copy(b, []byte("durable"))
	b = nil
	_ = b
	if string(s.Region(3)[:7]) != "durable" {
		t.Fatal("contents lost")
	}
	s.Wipe()
	if s.Has(3) || s.TotalBytes() != 0 {
		t.Fatal("wipe incomplete")
	}
}

func TestRegionIDs(t *testing.T) {
	s := NewStore()
	for i := RegionID(0); i < 5; i++ {
		if _, err := s.Allocate(i, 8); err != nil {
			t.Fatal(err)
		}
	}
	ids := s.RegionIDs()
	if len(ids) != 5 {
		t.Fatalf("got %d ids", len(ids))
	}
	seen := map[RegionID]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	for i := RegionID(0); i < 5; i++ {
		if !seen[i] {
			t.Fatalf("missing id %d", i)
		}
	}
}

func TestSaveModelMatchesPaperFigure1(t *testing.T) {
	m := DefaultSaveModel()
	// Paper: ~110 J/GB with one SSD, ~90 J of it CPU.
	e1 := m.EnergyPerGB(1)
	if e1 < 100 || e1 > 120 {
		t.Fatalf("1-SSD energy = %.1f J/GB, want ~110", e1)
	}
	// Monotonically decreasing with more SSDs (Figure 1's shape).
	prev := e1
	for ssds := 2; ssds <= 4; ssds++ {
		e := m.EnergyPerGB(ssds)
		if e >= prev {
			t.Fatalf("energy not decreasing: %d SSDs -> %.1f J/GB (prev %.1f)", ssds, e, prev)
		}
		prev = e
	}
	// 4 SSDs should cut energy by at least half versus 1 SSD.
	if m.EnergyPerGB(4) > e1/2 {
		t.Fatalf("4-SSD energy %.1f not < half of %.1f", m.EnergyPerGB(4), e1)
	}
	// Worst-case UPS cost ~$0.55/GB.
	if c := m.CostPerGB(1); c < 0.4 || c > 0.7 {
		t.Fatalf("cost per GB = $%.2f, want ~$0.55", c)
	}
}

func TestSaveModelTimeScalesWithSSDs(t *testing.T) {
	m := DefaultSaveModel()
	t1 := m.SaveTime(256, 1)
	t4 := m.SaveTime(256, 4)
	if t4*4 != t1 {
		t.Fatalf("save time does not scale: 1 SSD %v, 4 SSDs %v", t1, t4)
	}
	if t1 != sim.Time(128*sim.Second) {
		t.Fatalf("256 GB over 1 SSD = %v, want 128s at 2 GB/s", t1)
	}
	if m.SaveTime(1, 0) != m.SaveTime(1, 1) {
		t.Fatal("ssds<1 should clamp to 1")
	}
}

func TestStoreAllocationSizesQuick(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := NewStore()
		want := 0
		for i, sz := range sizes {
			if sz == 0 {
				continue
			}
			if _, err := s.Allocate(RegionID(i), int(sz)); err != nil {
				return false
			}
			want += int(sz)
		}
		return s.TotalBytes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocateOnUse: a region allocated on use exists from the start for
// every accounting purpose, gets its zeroed bytes from the first Region call
// and is an ordinary region from then on.
func TestAllocateOnUse(t *testing.T) {
	s := NewStore()
	if err := s.AllocateOnUse(3, 256); err != nil {
		t.Fatal(err)
	}
	if !s.Has(3) || s.TotalBytes() != 256 || len(s.RegionIDs()) != 1 {
		t.Fatalf("before use: Has=%v TotalBytes=%d RegionIDs=%v", s.Has(3), s.TotalBytes(), s.RegionIDs())
	}
	if _, err := s.Allocate(3, 256); err == nil {
		t.Fatal("Allocate over a region allocated on use succeeded")
	}
	if err := s.AllocateOnUse(3, 256); err == nil {
		t.Fatal("double AllocateOnUse succeeded")
	}
	if err := s.AllocateOnUse(4, 0); err == nil {
		t.Fatal("zero-size AllocateOnUse succeeded")
	}
	b := s.Region(3)
	if len(b) != 256 {
		t.Fatalf("first Region call returned %d bytes", len(b))
	}
	b[5] = 0xCD
	if got := s.Region(3); got[5] != 0xCD {
		t.Fatal("Region does not return the same bytes twice")
	}
	if !s.Has(3) || s.TotalBytes() != 256 || len(s.RegionIDs()) != 1 {
		t.Fatal("accounting changed when the bytes were made")
	}
	if err := s.AllocateOnUse(9, 64); err != nil {
		t.Fatal(err)
	}
	s.Free(9)
	if s.Has(9) || s.Region(9) != nil {
		t.Fatal("Free did not remove an unused region")
	}
	s.Wipe()
	if s.Has(3) || s.TotalBytes() != 0 {
		t.Fatal("Wipe left a region behind")
	}
}

// TestDataRegion: a data region is reserved whole and made a block at a
// time; a one-sided read of it materializes nothing, Usage tells reserved
// from materialized bytes for flat and data regions, and Free and Wipe
// remove it like any region.
func TestDataRegion(t *testing.T) {
	s := NewStore()
	layout := regionmem.Layout{RegionSize: 4096, BlockSize: 1024}
	r, err := s.AllocateData(4, layout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AllocateData(4, layout); err == nil {
		t.Fatal("double AllocateData succeeded")
	}
	if _, err := s.Allocate(4, 64); err == nil {
		t.Fatal("Allocate over a data region succeeded")
	}
	if s.Data(4) != r || s.Region(4) != nil || !s.Has(4) || s.TotalBytes() != 4096 {
		t.Fatalf("Data=%p Region=%v Has=%v TotalBytes=%d", s.Data(4), s.Region(4), s.Has(4), s.TotalBytes())
	}
	if _, err := s.Allocate(1, 512); err != nil {
		t.Fatal(err)
	}
	if err := s.AllocateOnUse(2, 256); err != nil {
		t.Fatal(err)
	}
	r.WriteHeader(2048, 7)
	buf := make([]byte, 2000)
	if !s.ReadAt(4, 1000, buf) || buf[1048] != 7 {
		t.Fatal("ReadAt across blocks did not see the header written")
	}
	if s.ReadAt(4, 3000, buf) || s.ReadAt(9, 0, buf) {
		t.Fatal("ReadAt past the region's end or of a missing region succeeded")
	}
	want := Usage{Flat: 768, FlatMaterialized: 512, Data: 4096, DataMaterialized: 1024}
	if got := s.Usage(); got != want {
		t.Fatalf("Usage = %+v, want %+v", got, want)
	}
	s.Free(4)
	if s.Has(4) || s.Data(4) != nil {
		t.Fatal("Free did not remove the data region")
	}
	if _, err := s.AllocateData(5, layout); err != nil {
		t.Fatal(err)
	}
	s.Wipe()
	if s.Has(5) || s.TotalBytes() != 0 {
		t.Fatal("Wipe left a data region behind")
	}
}
