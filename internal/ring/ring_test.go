package ring

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"farm/internal/fabric"
	"farm/internal/nvram"
	"farm/internal/proto"
	"farm/internal/sim"
)

// rig builds a two-machine fabric with a ring from machine 0 to machine 1.
type rig struct {
	eng    *sim.Engine
	net    *fabric.Network
	w      *Writer
	r      *Reader
	region []byte
}

func newRig(t *testing.T, capacity int) *rig {
	t.Helper()
	eng := sim.NewEngine(5)
	net := fabric.NewNetwork(eng, fabric.Options{})
	m0, m1 := nvram.NewStore(), nvram.NewStore()
	n0 := net.AddMachine(0, m0)
	net.AddMachine(1, m1)
	mem, err := m1.Allocate(100, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		eng:    eng,
		net:    net,
		w:      NewWriter(n0, 1, 100, capacity),
		r:      NewReader(mem),
		region: mem,
	}
}

func (g *rig) pump() { g.eng.Run() }

func TestAppendPollRoundTrip(t *testing.T) {
	g := newRig(t, 4096)
	payloads := [][]byte{[]byte("alpha"), []byte("bravo-longer"), {}, []byte("x")}
	for _, p := range payloads {
		if !g.w.Append(p, -1, nil) {
			t.Fatal("append failed")
		}
	}
	g.pump()
	frames := g.r.Poll()
	if len(frames) != len(payloads) {
		t.Fatalf("polled %d frames, want %d", len(frames), len(payloads))
	}
	for i, f := range frames {
		if !bytes.Equal(f.Payload, payloads[i]) {
			t.Fatalf("frame %d = %q, want %q", i, f.Payload, payloads[i])
		}
		if i > 0 && f.Seq <= frames[i-1].Seq {
			t.Fatal("sequence numbers not increasing")
		}
	}
	// Second poll returns nothing new.
	if again := g.r.Poll(); len(again) != 0 {
		t.Fatalf("re-poll returned %d frames", len(again))
	}
	// But frames remain pending until truncated.
	if p := g.r.Pending(); len(p) != len(payloads) {
		t.Fatalf("pending = %d, want %d", len(p), len(payloads))
	}
}

func TestHardwareAckFires(t *testing.T) {
	g := newRig(t, 1024)
	acked := false
	g.w.Append([]byte("rec"), -1, func(err error) {
		if err != nil {
			t.Errorf("ack error: %v", err)
		}
		acked = true
	})
	g.pump()
	if !acked {
		t.Fatal("no hardware ack")
	}
}

func TestTruncateReclaimsInOrder(t *testing.T) {
	g := newRig(t, 1024)
	for i := 0; i < 3; i++ {
		g.w.Append([]byte{byte(i)}, -1, nil)
	}
	g.pump()
	fs := g.r.Poll()
	// Truncate out of order: seq 1 first — nothing reclaimable yet.
	g.r.Truncate(fs[1].Seq)
	if g.r.ConsumedBytes() != 0 {
		t.Fatal("reclaimed out of order")
	}
	g.r.Truncate(fs[0].Seq)
	want := uint64(FrameBytes(1) * 2)
	if g.r.ConsumedBytes() != want {
		t.Fatalf("consumed = %d, want %d", g.r.ConsumedBytes(), want)
	}
	if g.r.Retained() != 1 {
		t.Fatalf("retained = %d, want 1", g.r.Retained())
	}
}

func TestWrapAround(t *testing.T) {
	const cap = 256
	g := newRig(t, cap)
	payload := make([]byte, 40) // frame = 48 bytes
	total := 0
	for i := 0; i < 50; i++ {
		payload[0] = byte(i)
		if !g.w.Append(payload, -1, nil) {
			t.Fatalf("append %d failed (no space?)", i)
		}
		g.pump()
		fs := g.r.Poll()
		if len(fs) != 1 || fs[0].Payload[0] != byte(i) {
			t.Fatalf("iteration %d: frames %v", i, fs)
		}
		g.r.Truncate(fs[0].Seq)
		g.w.UpdateConsumed(g.r.ConsumedBytes())
		total++
	}
	if total != 50 {
		t.Fatal("lost frames across wrap")
	}
}

func TestWriterBlocksWhenFullThenRecovers(t *testing.T) {
	const cap = 256
	g := newRig(t, cap)
	payload := make([]byte, 40)
	n := 0
	for g.w.Append(payload, -1, nil) {
		n++
		if n > 100 {
			t.Fatal("writer never filled")
		}
	}
	// Must fit at least (cap/frame)-1 frames before refusing.
	if n < cap/FrameBytes(40)-1 {
		t.Fatalf("refused too early: %d frames", n)
	}
	g.pump()
	fs := g.r.Poll()
	for _, f := range fs {
		g.r.Truncate(f.Seq)
	}
	g.w.UpdateConsumed(g.r.ConsumedBytes())
	if !g.w.Append(payload, -1, nil) {
		t.Fatal("writer did not recover after truncation")
	}
}

func TestReservations(t *testing.T) {
	const cap = 256
	g := newRig(t, cap)
	if !g.w.Reserve(40) || !g.w.Reserve(40) {
		t.Fatal("reservations failed on empty ring")
	}
	// Reserve until refusal.
	n := 2
	for g.w.Reserve(40) {
		n++
	}
	// Unreserved appends must now fail: space is promised.
	if g.w.Append(make([]byte, 40), -1, nil) {
		t.Fatal("append stole reserved space")
	}
	// Reserved appends succeed.
	if !g.w.Append(make([]byte, 40), 40, nil) {
		t.Fatal("reserved append failed")
	}
	// Releasing frees space for unreserved use.
	for i := 0; i < n-1; i++ {
		g.w.Release(40)
	}
	if !g.w.Append(make([]byte, 40), -1, nil) {
		t.Fatal("append after release failed")
	}
}

func TestReservedAppendSmallerPayloadOK(t *testing.T) {
	g := newRig(t, 1024)
	if !g.w.Reserve(100) {
		t.Fatal("reserve")
	}
	if !g.w.Append([]byte("small"), 100, nil) {
		t.Fatal("smaller-than-reservation append failed")
	}
	g.pump()
	if fs := g.r.Poll(); len(fs) != 1 || string(fs[0].Payload) != "small" {
		t.Fatalf("frames: %v", fs)
	}
}

func TestZeroingPreventsStaleParse(t *testing.T) {
	// Fill the ring with payloads that contain valid-looking magic bytes,
	// truncate, wrap, and confirm the reader never produces a bogus frame.
	const cap = 256
	g := newRig(t, cap)
	evil := make([]byte, 40)
	for i := 0; i+4 <= len(evil); i += 4 {
		evil[i] = 0x12
		evil[i+1] = 0xFA
		evil[i+2] = 0x12
		evil[i+3] = 0xFA
	}
	for i := 0; i < 30; i++ {
		if !g.w.Append(evil, -1, nil) {
			t.Fatal("append failed")
		}
		g.pump()
		fs := g.r.Poll()
		if len(fs) != 1 {
			t.Fatalf("iteration %d: %d frames (stale parse?)", i, len(fs))
		}
		if !bytes.Equal(fs[0].Payload, evil) {
			t.Fatal("payload corrupted")
		}
		g.r.Truncate(fs[0].Seq)
		g.w.UpdateConsumed(g.r.ConsumedBytes())
	}
}

func TestRingFIFOQuick(t *testing.T) {
	// Property: any sequence of appends is received in order with equal
	// contents, across wraps, when frames are truncated as they arrive.
	f := func(seed uint64, sizes []uint8) bool {
		eng := sim.NewEngine(seed)
		net := fabric.NewNetwork(eng, fabric.Options{})
		m1 := nvram.NewStore()
		n0 := net.AddMachine(0, nvram.NewStore())
		net.AddMachine(1, m1)
		mem, _ := m1.Allocate(1, 512)
		w := NewWriter(n0, 1, 1, 512)
		r := NewReader(mem)
		var want, got [][]byte
		for i, s := range sizes {
			p := make([]byte, int(s)%100)
			for j := range p {
				p[j] = byte(i + j)
			}
			if !w.Append(p, -1, nil) {
				return false // must never fill: we truncate each round
			}
			want = append(want, p)
			eng.Run()
			for _, fr := range r.Poll() {
				cp := make([]byte, len(fr.Payload))
				copy(cp, fr.Payload)
				got = append(got, cp)
				r.Truncate(fr.Seq)
			}
			w.UpdateConsumed(r.ConsumedBytes())
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameBytes(t *testing.T) {
	cases := map[int]int{0: 16, 1: 32, 8: 32, 9: 32, 40: 64}
	for n, want := range cases {
		if got := FrameBytes(n); got != want {
			t.Errorf("FrameBytes(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestManySmallRecordsThroughput(t *testing.T) {
	// Smoke test: a few thousand records across many wraps.
	g := newRig(t, 8192)
	const total = 5000
	sent, received := 0, 0
	for sent < total {
		p := []byte(fmt.Sprintf("record-%d", sent))
		if !g.w.Append(p, -1, nil) {
			g.pump()
			for _, f := range g.r.Poll() {
				g.r.Truncate(f.Seq)
				received++
			}
			g.w.UpdateConsumed(g.r.ConsumedBytes())
			continue
		}
		sent++
	}
	g.pump()
	for _, f := range g.r.Poll() {
		g.r.Truncate(f.Seq)
		received++
	}
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
}

func TestRewindToRedeliversFrames(t *testing.T) {
	g := newRig(t, 1024)
	for i := 0; i < 3; i++ {
		g.w.Append([]byte{byte(i)}, -1, nil)
	}
	g.pump()
	fs := slices.Clone(g.r.Poll()) // the next Poll reuses its result slice
	if len(fs) != 3 {
		t.Fatalf("polled %d", len(fs))
	}
	// Processing of the last two was "lost": rewind to their first seq.
	g.r.RewindTo(fs[1].Seq)
	again := g.r.Poll()
	if len(again) != 2 || again[0].Seq != fs[1].Seq || again[1].Seq != fs[2].Seq {
		t.Fatalf("re-poll: %v", again)
	}
	// Truncation still reclaims everything once.
	for _, f := range fs {
		g.r.Truncate(f.Seq)
	}
	if g.r.Retained() != 0 {
		t.Fatalf("retained %d", g.r.Retained())
	}
}

func TestRewindToUnknownSeqIsNoop(t *testing.T) {
	g := newRig(t, 1024)
	g.w.Append([]byte("x"), -1, nil)
	g.pump()
	fs := g.r.Poll()
	g.r.RewindTo(fs[0].Seq + 100) // beyond anything retained
	if len(g.r.Poll()) != 0 {
		t.Fatal("phantom frames after bogus rewind")
	}
}

func TestWriterDiagnostics(t *testing.T) {
	g := newRig(t, 1024)
	if g.w.FreeBytes() <= 0 {
		t.Fatal("no free space on empty ring")
	}
	before := g.w.FreeBytes()
	if !g.w.Reserve(100) {
		t.Fatal("reserve")
	}
	if g.w.ReservedBytes() != FrameBytes(100) {
		t.Fatalf("reserved = %d", g.w.ReservedBytes())
	}
	if g.w.FreeBytes() != before-FrameBytes(100) {
		t.Fatalf("free = %d", g.w.FreeBytes())
	}
	g.w.Append(make([]byte, 100), 100, nil)
	g.pump()
	for _, f := range g.r.Poll() {
		g.r.Truncate(f.Seq)
	}
	g.w.UpdateConsumed(g.r.ConsumedBytes())
	if g.w.ConsumedEstimate() != g.r.ConsumedBytes() {
		t.Fatal("consumed estimate not propagated")
	}
	if g.w.FreeBytes() != before {
		t.Fatalf("space not reclaimed: %d vs %d", g.w.FreeBytes(), before)
	}
}

// TestBeginCommitFillsFrameInPlace: a payload encoded straight into the
// frame Begin hands out arrives like one passed to Append.
func TestBeginCommitFillsFrameInPlace(t *testing.T) {
	g := newRig(t, 1024)
	if !g.w.Reserve(40) {
		t.Fatal("reserve")
	}
	buf, ok := g.w.Begin(5, 40)
	if !ok || len(buf) != 5 || cap(buf) != 5 {
		t.Fatalf("Begin = len %d cap %d ok %v, want a 5-byte capped window", len(buf), cap(buf), ok)
	}
	copy(buf, "hello")
	acked := false
	g.w.Commit(func(err error) { acked = err == nil })
	g.pump()
	if fs := g.r.Poll(); len(fs) != 1 || string(fs[0].Payload) != "hello" || !acked {
		t.Fatalf("polled %v acked %v", fs, acked)
	}
	if g.w.ReservedBytes() != 0 {
		t.Fatalf("reservation not consumed: %d", g.w.ReservedBytes())
	}
	if _, ok := g.w.Begin(2000, -1); ok {
		t.Fatal("unreserved Begin beyond capacity must fail")
	}
}

// TestAppendPollTruncateAllocationBudget pins the per-frame cost of the
// whole ring path: the writer's frame buffer and retry state are pooled,
// the reader keeps frames by value, reuses Poll's slice and hands payloads
// out in place, so a frame's round trip allocates nothing once the fabric's
// pooled buffers are warm. (It cost 6 allocations before frames were pooled
// and 1 while parse copied each payload.)
func TestAppendPollTruncateAllocationBudget(t *testing.T) {
	g := newRig(t, 1<<16)
	payload := make([]byte, 128)
	op := func() {
		if !g.w.Append(payload, -1, nil) {
			t.Fatal("ring full")
		}
		g.pump()
		for _, f := range g.r.Poll() {
			g.r.Truncate(f.Seq)
		}
		g.w.UpdateConsumed(g.r.ConsumedBytes())
	}
	for i := 0; i < 1000; i++ { // wrap a few times, fill the pools
		op()
	}
	if n := testing.AllocsPerRun(1000, op); n != 0 {
		t.Fatalf("append→poll→truncate of a 128 B payload: %v allocs, want 0", n)
	}
}

// TestDecodedRecordOutlivesItsRingBytes is the ownership rule as a test: a
// record decoded from a polled frame aliases the ring bytes, in place, until
// the frame is truncated, and a Clone taken before then outlives it. Decode
// a LOCK record: its values are views of the ring. Clone it, truncate the
// frame (the reader zeroes the bytes, and the in-place record reads zeros),
// let the writer wrap over the same offsets with other data, and the clone's
// values must not change. A parse that copies fails the first half; a
// shallow Clone fails the second.
func TestDecodedRecordOutlivesItsRingBytes(t *testing.T) {
	const capacity = 1024
	g := newRig(t, capacity)
	lock := &proto.Record{
		Type:    proto.RecLock,
		Tx:      proto.TxID{Config: 1, Machine: 0, Thread: 2, Local: 3},
		Regions: []uint32{7},
		Writes: []proto.ObjectWrite{
			{Addr: proto.Addr{Region: 7, Off: 64}, Version: 4, Allocated: true, Value: bytes.Repeat([]byte{0xAA}, 48)},
			{Addr: proto.Addr{Region: 7, Off: 128}, Version: 9, Allocated: true, Value: bytes.Repeat([]byte{0xBB}, 48)},
		},
	}
	buf, ok := g.w.Begin(proto.RecordSize(lock), -1)
	if !ok {
		t.Fatal("begin")
	}
	proto.AppendRecord(buf[:0], lock)
	g.w.Commit(nil)
	g.pump()
	fs := g.r.Poll()
	if len(fs) != 1 {
		t.Fatalf("polled %d frames", len(fs))
	}
	var inPlace proto.Record
	if err := proto.DecodeRecord(fs[0].Payload, &inPlace); err != nil {
		t.Fatal(err)
	}
	span := FrameBytes(proto.RecordSize(lock))
	if !bytes.Contains(g.region[:span], lock.Writes[0].Value) {
		t.Fatal("test is blind: the record's bytes are not where it expects them in the ring")
	}
	for i, w := range inPlace.Writes {
		v := w.Value
		if !bytes.Equal(v, lock.Writes[i].Value) {
			t.Fatalf("decoded write %d: %x", i, v)
		}
		if off := bytes.Index(g.region[:span], v); &v[0] != &g.region[off] {
			t.Fatalf("decoded write %d does not alias the ring: the payload was copied", i)
		}
	}
	held := inPlace.Clone()

	g.r.Truncate(fs[0].Seq)
	g.w.UpdateConsumed(g.r.ConsumedBytes())
	if !bytes.Equal(g.region[:span], make([]byte, span)) {
		t.Fatal("truncate did not zero the frame")
	}
	if !bytes.Equal(inPlace.Writes[0].Value, make([]byte, len(lock.Writes[0].Value))) {
		t.Fatalf("the in-place record did not see its frame zeroed: %x", inPlace.Writes[0].Value)
	}
	// Wrap the writer over offset 0 with different bytes.
	filler := bytes.Repeat([]byte{0x55}, 200)
	for wrote := 0; wrote < capacity+span; wrote += FrameBytes(len(filler)) {
		if !g.w.Append(filler, -1, nil) {
			t.Fatal("filler append failed")
		}
		g.pump()
		for _, f := range g.r.Poll() {
			g.r.Truncate(f.Seq)
		}
		g.w.UpdateConsumed(g.r.ConsumedBytes())
		if bytes.Contains(g.region[:span], filler[:32]) {
			break // the slot is overwritten; stop before it is zeroed again
		}
	}
	g.w.Append(filler, -1, nil) // and leave live foreign bytes somewhere in the ring
	g.pump()

	for i, w := range held.Writes {
		if !bytes.Equal(w.Value, lock.Writes[i].Value) || w.Addr != lock.Writes[i].Addr || w.Version != lock.Writes[i].Version {
			t.Fatalf("cloned write %d changed after its frame was truncated and overwritten: %x", i, w.Value)
		}
	}
}

// TestFramesCompleteInPsnOrder: acks come in psn order, as on an RC queue
// pair. A frame whose write times out is retried in place while the frame
// behind it lands and is acked by the NIC; the later frame completes only
// after the earlier one, when the reader can parse both. A final failure
// fails every frame behind it, landed or not, and every frame issued after
// it. A closed writer completes nothing.
func TestFramesCompleteInPsnOrder(t *testing.T) {
	var got []string
	record := func(name string) func(error) {
		return func(err error) { got = append(got, fmt.Sprintf("%s:%v", name, err)) }
	}
	expect := func(t *testing.T, want ...string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("callbacks %q, want %q", got, want)
		}
		got = nil
	}
	// hole appends "lost", dropped on the wire and retried, then "behind",
	// which lands at once; the NIC has acked "behind" when it returns.
	hole := func(t *testing.T, g *rig) {
		t.Helper()
		g.net.CutLink(0, 1)
		g.w.Append([]byte("lost"), -1, record("lost"))
		g.eng.RunFor(10 * sim.Microsecond) // reaches the cut and is dropped
		g.net.HealLink(0, 1)
		g.w.Append([]byte("behind"), -1, record("behind"))
		g.eng.RunFor(10 * sim.Microsecond)
		if !bytes.Contains(g.region, []byte("behind")) || bytes.Contains(g.region, []byte("lost")) {
			t.Fatal("the frame behind the hole did not land first")
		}
	}

	t.Run("later frame waits", func(t *testing.T) {
		g := newRig(t, 256)
		for round := 0; round < 8; round++ { // far enough to wrap several times
			hole(t, g)
			expect(t)
			if fs := g.r.Poll(); len(fs) != 0 {
				t.Fatalf("round %d: polled %d frames past the hole", round, len(fs))
			}
			g.pump() // the retry lands
			expect(t, "lost:<nil>", "behind:<nil>")
			fs := g.r.Poll()
			if len(fs) != 2 || string(fs[0].Payload) != "lost" || string(fs[1].Payload) != "behind" {
				t.Fatalf("round %d: polled %v after the hole filled", round, fs)
			}
			for _, f := range fs {
				g.r.Truncate(f.Seq)
			}
			g.w.UpdateConsumed(g.r.ConsumedBytes())
		}
	})

	t.Run("final failure fails the frames behind it", func(t *testing.T) {
		g := newRig(t, 256)
		hole(t, g)
		g.net.CutLink(0, 1) // every retry of "lost" fails
		g.pump()
		expect(t, "lost:"+fabric.ErrTimeout.Error(), "behind:"+fabric.ErrTimeout.Error())
		g.net.HealLink(0, 1)
		g.w.Append([]byte("later"), -1, record("later"))
		expect(t, "later:"+fabric.ErrTimeout.Error())
		g.pump()
		expect(t)
		if fs := g.r.Poll(); len(fs) != 0 {
			t.Fatalf("polled %v past a frame that never landed", fs)
		}
	})

	t.Run("closed writer completes nothing", func(t *testing.T) {
		g := newRig(t, 256)
		hole(t, g)
		g.w.Close()
		g.w.Append([]byte("after close"), -1, record("after close"))
		g.pump()
		expect(t)
	})
}

// TestPagedReaderKeepsThePageAPayloadLiesIn: a payload of zeros that fills a
// page of its own is handed out in place, in a page no write made. A write
// that lands only zeros elsewhere makes the reader look at every page
// again; it must not drop that page, which lies in the window, or the next
// page made would take its memory and the payload would read another
// page's bytes.
func TestPagedReaderKeepsThePageAPayloadLiesIn(t *testing.T) {
	mem := newPages(128, 16, &Spares{})
	hdr := make([]byte, headerBytes)
	frameAt(hdr, 0, frameMagic, 0, nil, 16)
	mem.WriteAt(hdr, 0) // the payload, bytes 16–31, is page 1
	r := NewPagedReader(mem)
	frames := r.Poll()
	if len(frames) != 1 || frames[0].copied || len(frames[0].Payload) != 16 {
		t.Fatalf("polled %+v, want one frame whose 16-byte payload is in place", frames)
	}
	mem.WriteAt(make([]byte, 8), 8) // the header's psn, 0 already
	r.Poll()
	mem.WriteAt(bytes.Repeat([]byte{0xEE}, 16), 80)
	if !bytes.Equal(frames[0].Payload, make([]byte, 16)) {
		t.Fatalf("the payload handed out reads %x, want zeros", frames[0].Payload)
	}
}
