package ring

import (
	"testing"

	"farm/internal/fabric"
	"farm/internal/nvram"
	"farm/internal/sim"
)

func benchRig(b *testing.B, capacity int) (*sim.Engine, *Writer, *Reader) {
	b.Helper()
	eng := sim.NewEngine(5)
	net := fabric.NewNetwork(eng, fabric.Options{})
	n0 := net.AddMachine(0, nvram.NewStore())
	m1 := nvram.NewStore()
	net.AddMachine(1, m1)
	mem, err := m1.Allocate(100, capacity)
	if err != nil {
		b.Fatal(err)
	}
	return eng, NewWriter(n0, 1, 100, capacity), NewReader(mem)
}

// BenchmarkAppendPollTruncate is one log record's whole trip through the
// ring: frame it, RDMA-write it through the simulated fabric, parse it out
// on the other side, hand it to Poll, reclaim it and report the space.
func BenchmarkAppendPollTruncate(b *testing.B) {
	eng, w, r := benchRig(b, 1<<16)
	payload := make([]byte, 128)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !w.Append(payload, -1, nil) {
			b.Fatal("ring full")
		}
		eng.Run()
		for _, f := range r.Poll() {
			r.Truncate(f.Seq)
		}
		w.UpdateConsumed(r.ConsumedBytes())
	}
}

// BenchmarkPollBacklog polls and reclaims 64 frames at a time, the shape
// of a saturated participant: Truncate finds frames by index, and reclaim
// slides the survivors down in place.
func BenchmarkPollBacklog(b *testing.B) {
	eng, w, r := benchRig(b, 1<<16)
	payload := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			if !w.Append(payload, -1, nil) {
				b.Fatal("ring full")
			}
		}
		eng.Run()
		for _, f := range r.Poll() {
			r.Truncate(f.Seq)
		}
		w.UpdateConsumed(r.ConsumedBytes())
	}
}
