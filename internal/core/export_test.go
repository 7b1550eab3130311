package core

// ChunkPool reports, per size class, the free chunks in m's chunk pool and
// the chunks its transactions hold.
func (m *Machine) ChunkPool() (free, inUse []int) {
	p := &m.chunks
	for c := range p.free {
		free, inUse = append(free, len(p.free[c])), append(inUse, p.inUse[c])
	}
	return free, inUse
}
