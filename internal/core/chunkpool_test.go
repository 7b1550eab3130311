package core_test

import (
	"testing"

	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/sim"
	"farm/internal/tatp"
)

// TestChunkPoolDoesNotPinSetUp: set-up's bulk loads carve many large chunks
// at once, and TATP's transactions few small ones. After a stretch of the
// mix, no machine's pool keeps more free chunks of a size class than its
// transactions held at once over that stretch: the chunks set-up left
// behind were shed.
func TestChunkPoolDoesNotPinSetUp(t *testing.T) {
	c := core.New(core.Options{NumMachines: 9, Threads: 2, Seed: 1})
	w, err := tatp.Setup(c, 2000, 6)
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, m := range c.Machines {
		free, _ := m.ChunkPool()
		for _, n := range free {
			held += n
		}
	}
	g := loadgen.New(c, w.Mix())
	g.Start([]int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 2, 2)
	c.RunFor(20 * sim.Millisecond) // the chunk pools' peaks of set-up age out
	peak := make([][]int, len(c.Machines))
	for end := c.Now() + 20*sim.Millisecond; c.Now() < end && c.Eng.Step(); {
		for i, m := range c.Machines {
			_, inUse := m.ChunkPool()
			if peak[i] == nil {
				peak[i] = inUse
			}
			for k, n := range inUse {
				peak[i][k] = max(peak[i][k], n)
			}
		}
	}
	for i, m := range c.Machines {
		free, _ := m.ChunkPool()
		for k, n := range free {
			if n > peak[i][k] {
				t.Errorf("machine %d keeps %d free chunks of class %d, %d were in use at most", i, n, k, peak[i][k])
			}
		}
	}
	t.Logf("%d free chunks after set-up", held)
}
