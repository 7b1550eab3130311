package kv

import (
	"encoding/binary"
	"testing"

	"farm/internal/core"
	"farm/internal/history"
	"farm/internal/loadgen"
	"farm/internal/sim"
)

// TestGetPutIsStrictlySerializable judges the hash table with the history
// checker: five machines run transactions that Get one of 12 keys and Put
// another, the value read plus one, so that two of them reading each
// other's key often commit concurrently, and the recorded history must be
// strictly serializable. After the drain a cluster-wide audit must find
// every region's replicas equal. The same run with read validation switched
// off must be convicted: that pair is a write skew only validation stops.
func TestGetPutIsStrictlySerializable(t *testing.T) {
	const keys = 12
	run := func(skipValidation bool) *history.Report {
		c := core.New(core.Options{NumMachines: 5, Seed: 9, History: true, SkipReadValidation: skipValidation})
		regions, err := c.CreateRegions(0, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		table := MustCreate(c, c.Machine(0), Config{
			Name: "judged", Buckets: 64, Slots: 4, MaxKey: 8, MaxVal: 8, Regions: regions,
		})
		val := make([]byte, 8)
		for k := uint64(0); k < keys; k++ {
			if err := loadgen.RunSync(c, c.Machine(0), 0, func(tx *core.Tx, done func(error)) {
				table.Put(tx, U64Key(k), val, done)
			}); err != nil {
				t.Fatal(err)
			}
		}
		g := loadgen.New(c, func(m *core.Machine, thread int, rng *sim.Rand, done func(bool)) {
			a, b := uint64(rng.Intn(keys)), uint64(rng.Intn(keys-1))
			if b >= a {
				b++
			}
			tx := m.Begin(thread)
			table.Get(tx, U64Key(a), func(v []byte, ok bool, err error) {
				if err != nil || !ok {
					done(false)
					return
				}
				next := binary.LittleEndian.AppendUint64(nil, binary.LittleEndian.Uint64(v)+1)
				table.Put(tx, U64Key(b), next, func(err error) {
					if err != nil {
						done(false)
						return
					}
					tx.Commit(func(err error) { done(err == nil) })
				})
			})
		})
		g.RunPoint([]int{0, 1, 2, 3, 4}, 2, 2, sim.Millisecond, 20*sim.Millisecond)
		c.RunFor(5 * sim.Millisecond) // what was in flight finishes
		var audits []core.AuditReport
		done := false
		c.StartAudit(func(rs []core.AuditReport) { audits, done = rs, true })
		for !done && c.Eng.Step() {
		}
		if len(audits) == 0 {
			t.Fatalf("skip validation %v: the audit reported no region", skipValidation)
		}
		for _, a := range audits {
			if !a.Conclusive || !a.Clean {
				t.Fatalf("skip validation %v: %s", skipValidation, a)
			}
		}
		return history.Check(c.Hist.Export())
	}
	rep := run(false)
	t.Logf("%d committed transactions judged, %d aborted", rep.Stats.Committed, rep.Stats.Aborted)
	if !rep.Ok() {
		t.Fatalf("history not strictly serializable:\n%s", rep)
	}
	if rep := run(true); rep.Ok() {
		t.Fatalf("with read validation off, %d committed transactions passed the checker", rep.Stats.Committed)
	}
}
