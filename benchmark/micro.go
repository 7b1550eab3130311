package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"farm/internal/audit"
	"farm/internal/bank"
	"farm/internal/core"
	"farm/internal/fabric"
	"farm/internal/history"
	"farm/internal/nvram"
	"farm/internal/proto"
	"farm/internal/regionmem"
	"farm/internal/ring"
	"farm/internal/sim"
	"farm/internal/stats"
	"farm/internal/trace"
)

// Micro-measurements: each layer's public API called in isolation, so a
// layer has its own line that does not depend on a workload. Wall numbers
// are the fastest of three timed loops (the least disturbed one); virtual
// numbers are exact. They are measured once per process.

var (
	microCache  map[string]float64
	microFailed []string // failed checks of the micro-measurements
)

func microResults() map[string]float64 {
	if microCache == nil {
		microCache = map[string]float64{}
		microSim(microCache)
		microFabric(microCache)
		microRing(microCache)
		microMemory(microCache)
		microInstr(microCache)
		microCommit(microCache)
	}
	return microCache
}

// nsPerOp times n calls of fn three times and returns the fastest, in ns
// per call.
func nsPerOp(n int, fn func()) float64 {
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := float64(time.Since(t0)) / float64(n); d < best {
			best = d
		}
	}
	return best
}

func allocsPerOp(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func microSim(out map[string]float64) {
	const pending = 10000
	e := sim.NewEngine(1)
	nop := func() {}
	for i := 1; i <= pending; i++ {
		e.After(sim.Time(i), nop)
	}
	lcg := uint64(1)
	delay := func() sim.Time { // a spread of deadlines, so pushes sift
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return sim.Time(lcg>>33)%(2*pending) + 1
	}
	out["sim.after_step_ns"] = nsPerOp(200000, func() {
		e.After(delay(), nop)
		e.Step()
	})
	out["sim.timer_stop_ns"] = nsPerOp(200000, func() {
		t := e.AfterTimer(delay(), nop)
		t.Stop()
	})
	e2 := sim.NewEngine(1)
	th := sim.NewThread(e2, "micro")
	out["sim.thread_do_ns"] = nsPerOp(200000, func() {
		th.Do(10, nop)
		e2.Run()
	})
}

// twoNICs is the smallest fabric: machine 0 talks to machine 1, which has
// one registered region.
func twoNICs(regionBytes int) (*sim.Engine, *fabric.NIC, *fabric.NIC, []byte) {
	eng := sim.NewEngine(5)
	net := fabric.NewNetwork(eng, fabric.Options{})
	n0 := net.AddMachine(0, nvram.NewStore())
	m1 := nvram.NewStore()
	n1 := net.AddMachine(1, m1)
	mem, err := m1.Allocate(microRegion, regionBytes)
	if err != nil {
		panic(err)
	}
	return eng, n0, n1, mem
}

const microRegion = nvram.RegionID(100)

func microFabric(out map[string]float64) {
	eng, n0, n1, _ := twoNICs(4096)
	n1.SetMessageHandler(func(fabric.MachineID, interface{}) {})
	buf := make([]byte, 64)
	msg := &proto.LockReply{}
	readCb := func([]byte, error) {}
	writeCb := func(error) {}
	const n = 50000
	out["fabric.read_ns"] = nsPerOp(n, func() { n0.Read(1, microRegion, 0, 64, readCb); eng.Run() })
	out["fabric.write_ns"] = nsPerOp(n, func() { n0.Write(1, microRegion, 0, buf, writeCb); eng.Run() })
	out["fabric.send_ns"] = nsPerOp(n, func() { n0.SendSized(1, msg, 64); eng.Run() })
	const batch = 16
	out["fabric.sendbatch_ns_per_msg"] = nsPerOp(n/batch, func() {
		b := n0.GetBatch()
		for i := 0; i < batch; i++ {
			b.Msgs = append(b.Msgs, msg)
		}
		n0.SendBatch(1, b, batch*64)
		eng.Run()
	}) / batch

	// Unloaded virtual latency of one 64 B verb, averaged over the wire
	// jitter.
	const samples = 1000
	vus := func(issue func(done func())) float64 {
		var total sim.Time
		for i := 0; i < samples; i++ {
			t0 := eng.Now()
			issue(func() { total += eng.Now() - t0 })
			eng.Run()
		}
		return total.Micros() / samples
	}
	out["fabric.read_vus"] = vus(func(done func()) { n0.Read(1, microRegion, 0, 64, func([]byte, error) { done() }) })
	out["fabric.write_vus"] = vus(func(done func()) { n0.Write(1, microRegion, 0, buf, func(error) { done() }) })
	var arrived func()
	n1.SetMessageHandler(func(fabric.MachineID, interface{}) { arrived() })
	out["fabric.send_vus"] = vus(func(done func()) { arrived = done; n0.SendSized(1, msg, 64) })
}

func microRing(out map[string]float64) {
	const capacity = 1 << 16
	eng, n0, _, mem := twoNICs(capacity)
	w := ring.NewWriter(n0, 1, microRegion, capacity)
	r := ring.NewReader(mem)
	payload := make([]byte, 128)
	op := func() {
		if !w.Append(payload, -1, nil) {
			panic("benchmark: ring full in micro-measurement")
		}
		eng.Run()
		for _, f := range r.Poll() {
			r.Truncate(f.Seq)
		}
		w.UpdateConsumed(r.ConsumedBytes())
	}
	out["ring.append_poll_truncate_ns"] = nsPerOp(50000, op)
	out["ring.append_allocs"] = allocsPerOp(10000, op)
}

func microMemory(out map[string]float64) {
	layout := regionmem.DefaultLayout()
	mem := make([]byte, layout.RegionSize)
	a := regionmem.NewAllocator(layout, mem)
	out["regionmem.alloc_free_ns"] = nsPerOp(500000, func() {
		off, _ := a.Alloc(64)
		a.Free(off)
	})
	off, _ := a.Alloc(64)
	payload := make([]byte, 64)
	version := uint64(0)
	out["regionmem.lock_commit_unlock_ns"] = nsPerOp(500000, func() {
		regionmem.TryLock(mem, off, version)
		version++
		regionmem.CommitWrite(mem, off, version, true, payload) // installs and unlocks
		regionmem.TryLock(mem, off, version)
		regionmem.Unlock(mem, off) // the aborted-lock path
	})

	// Rebuild of a full 1 MiB region of 64 B objects, half of them live.
	full := make([]byte, layout.RegionSize)
	slot := regionmem.SlotSize(64)
	headers := map[int]int{}
	for b := 0; b < layout.Blocks(); b++ {
		headers[b] = slot
		for i, o := 0, b*layout.BlockSize; o+slot <= (b+1)*layout.BlockSize; i, o = i+1, o+slot {
			regionmem.WriteHeader(full, o, regionmem.Compose(1, false, i%2 == 0))
		}
	}
	out["regionmem.rebuild_ms"] = nsPerOp(5, func() { regionmem.Rebuild(layout, full, headers) }) / 1e6

	var d audit.Digest
	out["audit.fold_ns"] = nsPerOp(500000, func() { d.Fold(off, 1, payload) })

	reg := proto.NewRegistry()
	proto.Register(reg, "LOCK-REPLY", func(*proto.LockReply) int { return 32 }, nil)
	proto.Register(reg, "VALIDATE", func(v *proto.ValidateReq) int { return 32 + 16*len(v.Addrs) }, nil)
	proto.Register[*proto.ValidateReply](reg, "VALIDATE-REPLY", nil, nil)
	proto.Register[*proto.NeedRecovery](reg, "NEED-RECOVERY", nil, nil)
	var msg interface{} = &proto.LockReply{}
	size := 0
	out["proto.lookup_sizeof_ns"] = nsPerOp(500000, func() { size += reg.Lookup(msg).SizeOf(msg) })

	h := stats.NewHistogram()
	v := sim.Time(1)
	out["stats.hist_record_ns"] = nsPerOp(500000, func() {
		v = v*3%1000003 + 1
		h.Record(v * sim.Nanosecond)
	})
	// String-keyed Inc among a realistic number of counters: the idiom at
	// core's call sites.
	c := stats.NewCounters()
	for _, m := range proto.WireMessages() {
		c.Inc(fmt.Sprintf("msg %T", m), 1)
	}
	c.Inc("tx_committed", 1)
	out["stats.counter_inc_ns"] = nsPerOp(500000, func() { c.Inc("tx_committed", 1) })
}

func microInstr(out map[string]float64) {
	set := trace.NewSet(trace.Options{Enabled: true}, 1)
	b := set.Machine(0)
	at := sim.Time(0)
	out["trace.begin_end_ns"] = nsPerOp(500000, func() {
		ctx := b.Begin("tx", "tx", at, 0, 0, 0)
		at++
		b.End(ctx, at, 0)
	})
	addr := proto.Addr{Region: 1, Off: 64}
	val := make([]byte, 8)
	var rec *history.Recorder
	n := 0
	out["history.record_ns"] = nsPerOp(20000, func() {
		if n%20000 == 0 {
			rec = history.NewRecorder() // a fresh log per timed loop
		}
		n++
		t := rec.Open(0, 0, at)
		t.Read(addr, 1)
		t.Write(addr, 1, val, false, false)
		t.Finish(at+1, history.Committed)
	})
}

// microCommit measures, on an idle 9-machine cluster, the virtual latency
// of one read-write and one read-only bank transaction — the floor under
// bank_lowload's p50 — and, on the same cluster, how fast the history
// checker judges a recorded 5 ms bank run.
func microCommit(out map[string]float64) {
	c := core.New(core.Options{NumMachines: 9, Seed: 1, History: true})
	w, err := bank.Setup(c, 256, 6, bankInitial)
	if err != nil {
		panic(err)
	}
	rng := sim.NewRand(7)
	one := func(op func(m *core.Machine, thread int, rng *sim.Rand, done func(bool))) float64 {
		const samples = 20
		var total sim.Time
		for i := 0; i < samples; i++ {
			finished := false
			t0 := c.Now()
			op(c.Machine(i%9), 0, rng, func(bool) { total += c.Now() - t0; finished = true })
			for !finished && c.Eng.Step() {
			}
			c.RunFor(sim.Millisecond) // let truncation finish: the next one starts idle
		}
		return total.Micros() / samples
	}
	out["commit.unloaded_rw_tx_us"] = one(w.Transfer)
	out["commit.unloaded_ro_tx_us"] = one(w.Audit)

	var done uint64
	mix := w.Mix()
	var loop func(m *core.Machine, th int)
	stop := false
	loop = func(m *core.Machine, th int) {
		if stop {
			return
		}
		mix(m, th, rng, func(ok bool) {
			if ok {
				done++
			}
			loop(m, th)
		})
	}
	for i := 0; i < 9; i++ {
		loop(c.Machine(i), 0)
		loop(c.Machine(i), 1)
	}
	c.RunFor(5 * sim.Millisecond)
	stop = true
	c.RunFor(sim.Millisecond)
	h := c.Hist.Export()
	t0 := time.Now()
	rep := history.Check(h)
	out["history.check_tx_per_wsec"] = float64(len(h.Events)) / time.Since(t0).Seconds()
	if !rep.Ok() {
		microFailed = append(microFailed, "micro bank run: history checker: "+rep.String())
	}
}
