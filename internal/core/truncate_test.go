package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"farm/internal/nvram"
	"farm/internal/proto"
	"farm/internal/sim"
)

// TestHeldCarriersDeliverEachTruncationOnce: a one-way cut holds every
// frame a coordinator writes to a loaded backup's log for 25 ms, past
// several flush intervals and ring retries, and then heals; the retries
// fill the hole and the held frames complete in order. Truncation ids ride
// frames in queue order and leave the queue when a carrier is acked, so no
// id lands on two frames, and after every step the pooled TRUNCATE slots
// toward the backup cover the transactions awaiting truncation there. Once
// the load stops, the queue and the pool drain.
func TestHeldCarriersDeliverEachTruncationOnce(t *testing.T) {
	c, region := testCluster(t, Options{})
	_, coord := primaryAndOutsider(t, c, region)
	var backup *Machine // neither end of the cut may be the CM: leases cross it
	for _, r := range c.Machine(0).mapping(region).Replicas[1:] {
		if m := c.Machine(int(r)); !m.IsCM() {
			backup = m
		}
	}
	const threads = 4
	var addrs [threads]proto.Addr
	for i := range addrs {
		addrs[i] = writeObjectIn(t, c, coord, region, []byte("00000000"))
	}
	c.RunFor(20 * sim.Millisecond)

	// Every distinct frame landing in the backup's ring for coord, by psn
	// (a retry lands again under the same psn), and the frames each
	// truncation id rode.
	landed := make(map[uint64]bool)
	rode := make(map[uint64][]uint64)
	var rec proto.Record
	backup.nic.SetWriteHook(func(region nvram.RegionID, off, length int) {
		if region == nvram.RegionID(logRegionID(coord.ID)) && length > 16 {
			frame := make([]byte, length)
			backup.store.ReadAt(region, off, frame)
			psn, n := binary.LittleEndian.Uint64(frame[8:]), binary.LittleEndian.Uint32(frame)
			if !landed[psn] && proto.DecodeRecord(frame[16:16+n], &rec) == nil {
				landed[psn] = true
				for _, id := range rec.TruncIDs {
					rode[id] = append(rode[id], psn)
				}
			}
		}
		backup.onRemoteWrite(region, off, length)
	})

	stop := false
	var loop func(i int)
	loop = func(i int) {
		tx := coord.Begin(i)
		tx.Read(addrs[i], 8, func(_ []byte, err error) {
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			tx.Write(addrs[i], []byte(fmt.Sprintf("%08d", c.Now()%1e8)))
			tx.Commit(func(error) {
				if !stop {
					loop(i)
				}
			})
		})
	}
	for i := range threads {
		loop(i)
	}
	q := &coord.peer(backup.ID).truncQ
	check := func(d sim.Time) {
		t.Helper()
		for end := c.Now() + d; c.Now() < end && c.Eng.Step(); {
			if q.pool < len(q.txs) {
				t.Fatalf("at %v: %d pooled slots toward m%d, %d transactions awaiting truncation there",
					c.Now(), q.pool, backup.ID, len(q.txs))
			}
		}
	}
	check(3 * sim.Millisecond)
	c.CutLink(coord.ID, backup.ID)
	check(25 * sim.Millisecond)
	c.HealLink(coord.ID, backup.ID)
	check(40 * sim.Millisecond)
	stop = true
	check(10 * sim.Millisecond)

	if len(rode) == 0 {
		t.Fatal("no truncation id reached the backup")
	}
	for id, psns := range rode {
		if len(psns) > 1 {
			t.Errorf("truncation id %#x landed on frames %v", id, psns)
		}
	}
	if len(q.txs) > 0 || q.pool > 0 {
		t.Errorf("after the load: %d transactions awaiting truncation toward m%d, %d pooled slots", len(q.txs), backup.ID, q.pool)
	}
}
