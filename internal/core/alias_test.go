package core

import (
	"bytes"
	"testing"

	"farm/internal/proto"
	"farm/internal/sim"
)

// TestHeldLockRecordSurvivesLogWrap is the record-ownership rule seen from
// core: participant state and recovery messages (SendTxState,
// ReplicateTxState) hold *proto.Record values whose ObjectWrite.Values
// alias the ring frame's private payload copy. Grab a participant's record
// while its transaction is in flight — exactly what a recovery message
// would carry — then let the transaction truncate and drive enough traffic
// through a deliberately small log to wrap every ring several times. The
// held values must not change.
func TestHeldLockRecordSurvivesLogWrap(t *testing.T) {
	const logCap = 1 << 12
	c, _ := testCluster(t, Options{LogCapacity: logCap})
	val := bytes.Repeat([]byte{0xC3}, 96)
	addr := writeObject(t, c, c.Machine(0), make([]byte, len(val)))

	tx := c.Machine(0).Begin(0)
	done := false
	tx.Read(addr, len(val), func(_ []byte, err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		tx.Write(addr, val)
		tx.Commit(func(err error) {
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			done = true
		})
	})
	var held []*proto.Record
	holding := map[*proto.Record]bool{}
	for steps := 0; steps < 1_000_000 && !(done && len(c.Machine(0).inflight) == 0); steps++ {
		if !c.Eng.Step() {
			break
		}
		for _, m := range c.Machines {
			for _, rt := range m.pend {
				// (the set-up transaction's records carry zeros, not val)
				if rt.lock != nil && !holding[rt.lock] && bytes.Equal(rt.lock.Writes[0].Value, val) {
					holding[rt.lock] = true
					held = append(held, rt.lock)
				}
			}
		}
	}
	if !done || len(held) < 2 {
		t.Fatalf("done=%v, held %d records; want the primary's LOCK and the backups' COMMIT-BACKUP", done, len(held))
	}

	appended := func() (n uint64) {
		for _, w := range c.Machine(0).logW {
			n += w.Appended()
		}
		return
	}
	start := appended()
	for i := 0; appended()-start < 4*logCap*uint64(len(c.Machines)); i++ {
		writeObject(t, c, c.Machine(0), bytes.Repeat([]byte{byte(i)}, 96))
		if i > 10_000 {
			t.Fatal("log never wrapped")
		}
	}
	c.RunFor(5 * sim.Millisecond)
	for _, m := range c.Machines {
		if len(m.pend) != 0 {
			t.Fatalf("machine %d still holds %d participant entries: the held frames were not truncated", m.ID, len(m.pend))
		}
	}

	for i, rec := range held {
		if len(rec.Writes) != 1 || rec.Writes[0].Addr != addr || !bytes.Equal(rec.Writes[0].Value, val) {
			t.Fatalf("held record %d (%v) changed after its log wrapped: %+v", i, rec.Type, rec.Writes)
		}
	}
}
