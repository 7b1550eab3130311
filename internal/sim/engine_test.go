package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, v)
		}
	}
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", fired)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestRunUntilAdvancesClockAndLeavesLaterEvents(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(10, func() { ran++ })
	e.At(100, func() { ran++ })
	e.RunUntil(50)
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 2 || e.Now() != 100 {
		t.Fatalf("resume failed: ran=%d now=%v", ran, e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	timer := e.AfterTimer(10, func() { fired = true })
	e.At(5, func() { timer.Stop() })
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if !timer.Stopped() {
		t.Fatal("Stopped() should report true")
	}
}

func TestStopAndResume(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(1, func() { got = append(got, 1); e.Stop() })
	e.At(2, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 1 {
		t.Fatalf("Stop did not halt Run: %v", got)
	}
	e.Resume()
	e.Run()
	if len(got) != 2 {
		t.Fatalf("Resume did not continue: %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000µs"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRand(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds too correlated: %d matches", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
		if v := r.Between(100, 200); v < 100 || v >= 200 {
			t.Fatalf("Between out of range: %d", v)
		}
	}
}

func TestRandFloat64Quick(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfUniformAndSkewed(t *testing.T) {
	r := NewRand(11)
	u := NewZipf(r, 100, 0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[u.Next()]++
	}
	for k, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("uniform zipf too skewed at %d: %d", k, c)
		}
	}
	z := NewZipf(r, 100, 0.9)
	zc := make([]int, 100)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v >= 100 {
			t.Fatalf("zipf out of range: %d", v)
		}
		zc[v]++
	}
	if zc[0] < 5*counts[0] {
		t.Fatalf("zipf theta=0.9 not skewed: head=%d uniform head=%d", zc[0], counts[0])
	}
}

func TestThreadServiceAndQueueing(t *testing.T) {
	e := NewEngine(1)
	th := NewThread(e, "t0")
	var done []Time
	// Two items of 100ns each, enqueued together: completions at 100 and 200.
	th.Do(100, func() { done = append(done, e.Now()) })
	th.Do(100, func() { done = append(done, e.Now()) })
	e.Run()
	if len(done) != 2 || done[0] != 100 || done[1] != 200 {
		t.Fatalf("service times wrong: %v", done)
	}
	if th.BusyTime() != 200 {
		t.Fatalf("busy time = %v, want 200", th.BusyTime())
	}
	if th.Served() != 2 {
		t.Fatalf("served = %d, want 2", th.Served())
	}
}

func TestThreadPriority(t *testing.T) {
	e := NewEngine(1)
	th := NewThread(e, "t0")
	var order []string
	th.Do(10, func() { order = append(order, "n1") })
	th.Do(10, func() { order = append(order, "n2") })
	th.DoPriority(10, func() { order = append(order, "hi") })
	e.Run()
	// n1 is already in service when hi arrives; hi must preempt the queue
	// (run before n2) but not the in-service item.
	if len(order) != 3 || order[0] != "n1" || order[1] != "hi" || order[2] != "n2" {
		t.Fatalf("priority order wrong: %v", order)
	}
}

// TestThreadDoIfGuard: a guarded item is served and charged either way, but
// its fn runs only if the guard still holds when the work completes — and
// scheduling one allocates nothing (a pre-bound fn, no wrapper closure).
func TestThreadDoIfGuard(t *testing.T) {
	e := NewEngine(1)
	th := NewThread(e, "t0")
	alive := true
	var ran []string
	th.DoIf(100, &alive, func() { ran = append(ran, "a"); alive = false })
	th.DoIf(100, &alive, func() { ran = append(ran, "b") }) // guard drops while queued
	th.Do(100, func() { ran = append(ran, "c") })
	e.Run()
	if len(ran) != 2 || ran[0] != "a" || ran[1] != "c" {
		t.Fatalf("ran %v, want [a c]", ran)
	}
	if th.BusyTime() != 300 || th.Served() != 3 {
		t.Fatalf("skipped item must still be served and charged: busy %v served %d", th.BusyTime(), th.Served())
	}
	alive = true
	nop := func() {}
	if n := testing.AllocsPerRun(100, func() { th.DoIf(10, &alive, nop); e.Run() }); n != 0 {
		t.Fatalf("DoIf allocates %v per item", n)
	}
}

func TestThreadJitter(t *testing.T) {
	e := NewEngine(1)
	th := NewThread(e, "t0")
	th.SetJitter(func(*Rand) Time { return 50 })
	var at Time
	th.Do(100, func() { at = e.Now() })
	e.Run()
	if at != 150 {
		t.Fatalf("jittered completion at %v, want 150", at)
	}
}

func TestThreadPoolLeastLoaded(t *testing.T) {
	e := NewEngine(1)
	p := NewThreadPool(e, 4, "m0")
	for i := 0; i < 8; i++ {
		p.Dispatch(100, nil)
	}
	// 8 items over 4 threads: everything should complete by t=200.
	e.Run()
	if e.Now() != 200 {
		t.Fatalf("pool did not balance: finished at %v, want 200", e.Now())
	}
	if got := p.Utilization(200); got != 1.0 {
		t.Fatalf("utilization = %v, want 1.0", got)
	}
}

func TestThreadPoolByIndexSharding(t *testing.T) {
	e := NewEngine(1)
	p := NewThreadPool(e, 3, "m")
	if p.ByIndex(0) == p.ByIndex(1) {
		t.Fatal("distinct indices mapped to same thread")
	}
	if p.ByIndex(1) != p.ByIndex(4) {
		t.Fatal("index sharding not modular")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []uint64 {
		e := NewEngine(99)
		var trace []uint64
		var step func()
		step = func() {
			trace = append(trace, e.Rand().Uint64n(1000))
			if len(trace) < 50 {
				e.After(Time(e.Rand().Intn(100)+1), step)
			}
		}
		e.After(1, step)
		e.Run()
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}
