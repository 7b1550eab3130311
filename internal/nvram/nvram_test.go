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
	if u := s.Usage(); u != (Usage{Flat: 128, FlatMaterialized: 128}) {
		t.Fatalf("Usage = %+v", u)
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
}

// TestRegionIDs: every region id allocated exists, no other does, and Usage
// sums their sizes.
func TestRegionIDs(t *testing.T) {
	s := NewStore()
	for i := RegionID(0); i < 5; i++ {
		if _, err := s.Allocate(i, 8); err != nil {
			t.Fatal(err)
		}
	}
	for i := RegionID(0); i < 7; i++ {
		if s.Has(i) != (i < 5) {
			t.Fatalf("Has(%d) = %v", i, s.Has(i))
		}
	}
	if u := s.Usage(); u.Flat != 40 {
		t.Fatalf("Usage = %+v, want 40 flat bytes", u)
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
		return s.Usage().Flat == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// pages is a Paged region held in 64-byte pages, made by the first write
// landing in them.
type pages struct {
	size int
	held map[int][]byte
}

func (p *pages) Size() int      { return p.size }
func (p *pages) HeldBytes() int { return 64 * len(p.held) }

func (p *pages) WriteAt(b []byte, off int) bool {
	if off < 0 || off+len(b) > p.size {
		return false
	}
	for i := range b {
		pg := p.held[(off+i)/64]
		if pg == nil {
			pg = make([]byte, 64)
			p.held[(off+i)/64] = pg
		}
		pg[(off+i)%64] = b[i]
	}
	return true
}

func (p *pages) ReadAt(b []byte, off int) bool {
	if off < 0 || off+len(b) > p.size {
		return false
	}
	for i := range b {
		b[i] = 0
		if pg := p.held[(off+i)/64]; pg != nil {
			b[i] = pg[(off+i)%64]
		}
	}
	return true
}

// TestPagedRegion: a paged region exists from its allocation on, takes
// one-sided writes and reads through the store, counts the pages it holds
// as materialized, and goes with Free.
func TestPagedRegion(t *testing.T) {
	s := NewStore()
	p := &pages{size: 256, held: map[int][]byte{}}
	if err := s.AllocatePaged(3, p); err != nil {
		t.Fatal(err)
	}
	if !s.Has(3) || s.Region(3) != nil || s.Usage() != (Usage{Flat: 256}) {
		t.Fatalf("before use: Has=%v Region=%v Usage=%+v", s.Has(3), s.Region(3), s.Usage())
	}
	if _, err := s.Allocate(3, 256); err == nil {
		t.Fatal("Allocate over a paged region succeeded")
	}
	if err := s.AllocatePaged(3, p); err == nil {
		t.Fatal("double AllocatePaged succeeded")
	}
	if err := s.AllocatePaged(4, &pages{}); err == nil {
		t.Fatal("zero-size AllocatePaged succeeded")
	}
	if !s.WriteAt(3, 60, []byte("straddles")) || s.WriteAt(3, 250, []byte("too long")) || s.WriteAt(9, 0, []byte{1}) {
		t.Fatal("WriteAt took a write past the end or to a missing region, or refused one that fits")
	}
	buf := make([]byte, 9)
	if !s.ReadAt(3, 60, buf) || string(buf) != "straddles" {
		t.Fatalf("ReadAt read %q", buf)
	}
	if got := s.Usage(); got != (Usage{Flat: 256, FlatMaterialized: 128}) {
		t.Fatalf("Usage = %+v, want the two pages written", got)
	}
	flat, _ := s.Allocate(5, 32)
	if !s.WriteAt(5, 30, []byte{7, 8}) || flat[31] != 8 || s.WriteAt(5, 31, []byte{7, 8}) {
		t.Fatal("WriteAt of a flat region")
	}
	s.Free(3)
	if s.Has(3) || s.WriteAt(3, 0, []byte{1}) {
		t.Fatal("Free did not remove the paged region")
	}
}

// TestDataRegion: a data region is reserved whole and made a block at a
// time; a one-sided read of it materializes nothing, Usage tells reserved
// from materialized bytes for flat, paged and data regions, and Free
// removes it like any region.
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
	if s.Data(4) != r || s.Region(4) != nil || !s.Has(4) || s.Usage().Data != 4096 {
		t.Fatalf("Data=%p Region=%v Has=%v Usage=%+v", s.Data(4), s.Region(4), s.Has(4), s.Usage())
	}
	if s.WriteAt(4, 0, []byte{1}) {
		t.Fatal("a one-sided write landed in a data region")
	}
	if _, err := s.Allocate(1, 512); err != nil {
		t.Fatal(err)
	}
	if err := s.AllocatePaged(2, &pages{size: 256, held: map[int][]byte{}}); err != nil {
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
}
