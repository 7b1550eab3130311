package fabric

import (
	"errors"
	"testing"

	"farm/internal/nvram"
	"farm/internal/sim"
)

func newPair(t *testing.T) (*sim.Engine, *Network, *NIC, *NIC, *nvram.Store, *nvram.Store) {
	t.Helper()
	eng := sim.NewEngine(42)
	net := NewNetwork(eng, Options{})
	m0, m1 := nvram.NewStore(), nvram.NewStore()
	n0 := net.AddMachine(0, m0)
	n1 := net.AddMachine(1, m1)
	return eng, net, n0, n1, m0, m1
}

func TestOneSidedWriteThenRead(t *testing.T) {
	eng, _, n0, _, _, m1 := newPair(t)
	if _, err := m1.Allocate(5, 64); err != nil {
		t.Fatal(err)
	}
	var wrote, read bool
	n0.Write(1, 5, 8, []byte("hello"), func(err error) {
		if err != nil {
			t.Errorf("write err: %v", err)
		}
		wrote = true
		n0.Read(1, 5, 8, 5, func(data []byte, err error) {
			if err != nil || string(data) != "hello" {
				t.Errorf("read = %q, %v", data, err)
			}
			read = true
		})
	})
	eng.Run()
	if !wrote || !read {
		t.Fatal("callbacks did not fire")
	}
	// Bytes must actually be in the remote store.
	if string(m1.Region(5)[8:13]) != "hello" {
		t.Fatal("write did not land in remote NVRAM")
	}
}

func TestWriteDoesNotTouchRemoteCPU(t *testing.T) {
	// No message handler is installed; one-sided ops must still complete.
	eng, _, n0, n1, _, m1 := newPair(t)
	m1.Allocate(1, 32)
	n1.SetMessageHandler(func(MachineID, interface{}) {
		t.Error("one-sided write invoked remote message handler")
	})
	done := false
	n0.Write(1, 1, 0, []byte{1, 2, 3}, func(err error) {
		if err != nil {
			t.Error(err)
		}
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("no hardware ack")
	}
}

func TestReadBadAddress(t *testing.T) {
	eng, _, n0, _, _, m1 := newPair(t)
	m1.Allocate(1, 16)
	var errMissing, errOOB error
	n0.Read(1, 99, 0, 8, func(_ []byte, err error) { errMissing = err })
	n0.Read(1, 1, 8, 16, func(_ []byte, err error) { errOOB = err })
	eng.Run()
	if !errors.Is(errMissing, ErrBadAddress) {
		t.Fatalf("missing region: %v", errMissing)
	}
	if !errors.Is(errOOB, ErrBadAddress) {
		t.Fatalf("out of bounds: %v", errOOB)
	}
}

func TestOpsToDeadMachineTimeout(t *testing.T) {
	eng, net, n0, n1, _, m1 := newPair(t)
	m1.Allocate(1, 16)
	n1.SetPowered(false)
	var rerr, werr, perr error
	start := eng.Now()
	n0.Read(1, 1, 0, 8, func(_ []byte, err error) { rerr = err })
	n0.Write(1, 1, 0, []byte{1}, func(err error) { werr = err })
	n0.Probe(1, func(err error) { perr = err })
	eng.Run()
	for _, err := range []error{rerr, werr, perr} {
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("want timeout, got %v", err)
		}
	}
	if eng.Now()-start < net.Opts.FailTimeout {
		t.Fatal("timeout reported too early")
	}
}

func TestInFlightWriteLandsAfterInitiatorDeath(t *testing.T) {
	// The FaRM hazard: a coordinator issues a log write and dies; the bytes
	// still land at the destination and are acked by hardware — only the
	// dead initiator's completion is suppressed.
	eng, _, n0, _, _, m1 := newPair(t)
	m1.Allocate(1, 16)
	completed := false
	n0.Write(1, 1, 0, []byte{0xCC}, func(error) { completed = true })
	eng.After(1, func() { n0.SetPowered(false) }) // die while in flight
	eng.Run()
	if completed {
		t.Fatal("dead initiator received a completion")
	}
	if m1.Region(1)[0] != 0xCC {
		t.Fatal("in-flight write was lost; it must land")
	}
}

func TestWriteHookFiresOnRemoteWrite(t *testing.T) {
	eng, _, n0, n1, _, m1 := newPair(t)
	m1.Allocate(2, 64)
	var gotRegion nvram.RegionID
	var gotOff, gotLen int
	n1.SetWriteHook(func(r nvram.RegionID, off, length int) {
		gotRegion, gotOff, gotLen = r, off, length
	})
	n0.Write(1, 2, 16, []byte("abcd"), nil)
	eng.Run()
	if gotRegion != 2 || gotOff != 16 || gotLen != 4 {
		t.Fatalf("hook got (%d,%d,%d)", gotRegion, gotOff, gotLen)
	}
}

func TestSendDelivery(t *testing.T) {
	eng, _, n0, n1, _, _ := newPair(t)
	var from MachineID = -1
	var got interface{}
	n1.SetMessageHandler(func(src MachineID, msg interface{}) { from, got = src, msg })
	n0.Send(1, "ping")
	eng.Run()
	if from != 0 || got != "ping" {
		t.Fatalf("delivery: from=%d msg=%v", from, got)
	}
}

func TestSendToDeadOrPartitionedDropped(t *testing.T) {
	eng, net, n0, n1, _, _ := newPair(t)
	delivered := 0
	n1.SetMessageHandler(func(MachineID, interface{}) { delivered++ })
	n1.SetPowered(false)
	n0.Send(1, "x")
	eng.Run()
	n1.SetPowered(true)
	net.SetPartition(map[MachineID]int{0: 0, 1: 1})
	n0.Send(1, "y")
	eng.Run()
	if delivered != 0 {
		t.Fatalf("messages leaked through: %d", delivered)
	}
	net.HealPartition()
	n0.Send(1, "z")
	eng.Run()
	if delivered != 1 {
		t.Fatalf("heal failed: %d", delivered)
	}
}

func TestPartitionBlocksOneSided(t *testing.T) {
	eng, net, n0, _, _, m1 := newPair(t)
	m1.Allocate(1, 8)
	net.SetPartition(map[MachineID]int{0: 0, 1: 1})
	var err error
	n0.Read(1, 1, 0, 4, func(_ []byte, e error) { err = e })
	eng.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("partitioned read: %v", err)
	}
}

func TestUDLoss(t *testing.T) {
	eng := sim.NewEngine(7)
	opts := DefaultOptions()
	opts.UDLossProb = 0.5
	net := NewNetwork(eng, opts)
	n0 := net.AddMachine(0, nvram.NewStore())
	n1 := net.AddMachine(1, nvram.NewStore())
	got := 0
	n1.SetUDHandler(func(MachineID, interface{}) { got++ })
	for i := 0; i < 1000; i++ {
		n0.SendUD(1, i)
	}
	eng.Run()
	if got < 300 || got > 700 {
		t.Fatalf("UD loss 0.5: delivered %d/1000", got)
	}
	if net.Counters.Get("ud_dropped") != uint64(1000-got) {
		t.Fatalf("drop accounting: %d + %d != 1000", got, net.Counters.Get("ud_dropped"))
	}
}

func TestUDSeparateFromMessages(t *testing.T) {
	eng, _, n0, n1, _, _ := newPair(t)
	var ud, msg int
	n1.SetUDHandler(func(MachineID, interface{}) { ud++ })
	n1.SetMessageHandler(func(MachineID, interface{}) { msg++ })
	n0.SendUD(1, "lease")
	n0.Send(1, "rpc")
	eng.Run()
	if ud != 1 || msg != 1 {
		t.Fatalf("routing: ud=%d msg=%d", ud, msg)
	}
}

func TestCounters(t *testing.T) {
	eng, net, n0, _, _, m1 := newPair(t)
	m1.Allocate(1, 128)
	n0.Write(1, 1, 0, make([]byte, 100), nil)
	n0.Read(1, 1, 0, 50, func([]byte, error) {})
	n0.Send(1, "m")
	eng.Run()
	c := net.Counters
	if c.Get("rdma_write") != 1 || c.Get("rdma_write_bytes") != 100 {
		t.Fatalf("write counters: %s", c)
	}
	if c.Get("rdma_read") != 1 || c.Get("rdma_read_bytes") != 50 {
		t.Fatalf("read counters: %s", c)
	}
	if c.Get("msg_send") != 1 {
		t.Fatalf("msg counters: %s", c)
	}
}

func TestNICRateLimiting(t *testing.T) {
	// 1000 sends through one NIC must take at least 1000 * NICOpTime of
	// virtual time at the sender's tx queue.
	eng := sim.NewEngine(3)
	opts := DefaultOptions()
	opts.NICOpTime = 100 * sim.Nanosecond
	net := NewNetwork(eng, opts)
	n0 := net.AddMachine(0, nvram.NewStore())
	net.AddMachine(1, nvram.NewStore())
	for i := 0; i < 1000; i++ {
		n0.Send(1, i)
	}
	eng.Run()
	if eng.Now() < 1000*100 {
		t.Fatalf("NIC not rate limiting: finished at %v", eng.Now())
	}
}

func TestWritePayloadIsCopied(t *testing.T) {
	// Mutating the caller's buffer after Write must not affect the data on
	// the wire (real NICs DMA at post time in our model).
	eng, _, n0, _, _, m1 := newPair(t)
	m1.Allocate(1, 8)
	buf := []byte{1, 2, 3}
	n0.Write(1, 1, 0, buf, nil)
	buf[0] = 99
	eng.Run()
	if m1.Region(1)[0] != 1 {
		t.Fatal("write observed caller mutation")
	}
}

// TestReadIntoLandsInTheCallersBuffer: a one-sided read lands in the buffer
// its initiator names, remote or local, and in steady state (verb ops pooled)
// allocates nothing; Read, which makes a fresh buffer per verb, costs one.
func TestReadIntoLandsInTheCallersBuffer(t *testing.T) {
	eng, _, n0, _, m0, m1 := newPair(t)
	copy(mustAlloc(t, m1, 5, 64)[8:], "remote")
	copy(mustAlloc(t, m0, 5, 64)[8:], "local!")
	buf := make([]byte, 6)
	var got []byte
	cb := func(data []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = data
	}
	for dst, want := range map[MachineID]string{1: "remote", 0: "local!"} {
		got = nil
		n0.ReadInto(dst, 5, 8, buf, cb)
		eng.Run()
		if string(got) != want || &got[0] != &buf[0] {
			t.Fatalf("read from m%d delivered %q at %p, want %q in the caller's buffer at %p", dst, got, got, want, buf)
		}
	}
	into := testing.AllocsPerRun(100, func() { n0.ReadInto(1, 5, 8, buf, cb); eng.Run() })
	fresh := testing.AllocsPerRun(100, func() { n0.Read(1, 5, 8, len(buf), cb); eng.Run() })
	if into != 0 || fresh != 1 {
		t.Fatalf("allocations per read: %v into the caller's buffer (want 0), %v into a fresh one (want 1)", into, fresh)
	}
}

func mustAlloc(t *testing.T, s *nvram.Store, region nvram.RegionID, size int) []byte {
	t.Helper()
	mem, err := s.Allocate(region, size)
	if err != nil {
		t.Fatal(err)
	}
	return mem
}
