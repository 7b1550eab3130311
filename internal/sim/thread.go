package sim

// Thread models one hardware thread as a non-preemptive FIFO server with a
// two-level priority queue. Work items are (cpu-cost, completion) pairs; a
// thread serves one item at a time and charges its cost to the virtual
// clock, so CPU saturation and queueing delay emerge naturally. This is how
// the reproduction exposes the CPU bottlenecks the paper is about: RPC
// handling costs remote CPU here, one-sided RDMA does not.
//
// The queues are ring buffers and each thread owns a single pre-bound
// completion closure, so serving an item performs no heap allocation in
// steady state (the old slice-slide queues re-allocated their backing
// arrays continuously and bound one closure per item).
type Thread struct {
	eng  *Engine
	name string

	busy   bool
	high   workRing // served before normal work (lease-manager priority)
	normal workRing

	// cur is the item in service; finishFn is the completion closure bound
	// once at construction and reused for every item.
	cur      workItem
	finishFn func()

	// busyNS accumulates time spent serving work, for utilization metrics.
	busyNS Time
	// jitter, if set, is sampled and added to every item's service time.
	// It models scheduler preemption by unrelated OS tasks.
	jitter func(r *Rand) Time

	served uint64
}

type workItem struct {
	cost Time
	fn   func()
	// guard, when non-nil, is checked at completion: fn is skipped (the
	// cost is still charged) if it reads false by then. It lets a host gate
	// every item on "is my machine still alive" without wrapping each fn
	// in a fresh closure.
	guard *bool
}

// workRing is a growable FIFO ring of work items. Pop zeroes the vacated
// entry so the ring never pins dead closures.
type workRing struct {
	items []workItem
	head  int
	n     int
}

func (r *workRing) push(it workItem) {
	if r.n == len(r.items) {
		grown := make([]workItem, max(8, 2*len(r.items)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.items[(r.head+i)%len(r.items)]
		}
		r.items = grown
		r.head = 0
	}
	r.items[(r.head+r.n)%len(r.items)] = it
	r.n++
}

func (r *workRing) pop() workItem {
	it := r.items[r.head]
	r.items[r.head] = workItem{}
	r.head = (r.head + 1) % len(r.items)
	r.n--
	return it
}

// NewThread creates an idle thread attached to eng.
func NewThread(eng *Engine, name string) *Thread {
	t := &Thread{eng: eng, name: name}
	t.finishFn = t.finish
	return t
}

// Name returns the diagnostic name given at construction.
func (t *Thread) Name() string { return t.name }

// SetJitter installs a per-item scheduling-delay sampler (may be nil).
func (t *Thread) SetJitter(f func(r *Rand) Time) { t.jitter = f }

// Do enqueues work costing cost CPU time; fn runs when the work completes.
// fn may be nil for pure CPU-burn accounting.
func (t *Thread) Do(cost Time, fn func()) { t.enqueue(cost, fn, nil, false) }

// DoIf is Do for work that only matters while *guard holds: the thread
// serves the item and charges its cost either way, but runs fn only if
// *guard is still true when the work completes.
func (t *Thread) DoIf(cost Time, guard *bool, fn func()) { t.enqueue(cost, fn, guard, false) }

// DoPriority enqueues work ahead of all normal-priority work.
func (t *Thread) DoPriority(cost Time, fn func()) { t.enqueue(cost, fn, nil, true) }

func (t *Thread) enqueue(cost Time, fn func(), guard *bool, prio bool) {
	if cost < 0 {
		cost = 0
	}
	it := workItem{cost: cost, fn: fn, guard: guard}
	if prio {
		t.high.push(it)
	} else {
		t.normal.push(it)
	}
	if !t.busy {
		t.serveNext()
	}
}

func (t *Thread) serveNext() {
	var it workItem
	switch {
	case t.high.n > 0:
		it = t.high.pop()
	case t.normal.n > 0:
		it = t.normal.pop()
	default:
		t.busy = false
		return
	}
	t.busy = true
	cost := it.cost
	if t.jitter != nil {
		cost += t.jitter(t.eng.Rand())
	}
	t.busyNS += cost
	t.cur = it
	t.eng.After(cost, t.finishFn)
}

// finish completes the item in service and starts the next one. It is the
// thread's single completion callback: cur is read before running fn so a
// completion that enqueues more work (busy is still true, so enqueue just
// queues) cannot clobber it.
func (t *Thread) finish() {
	it := t.cur
	t.cur = workItem{}
	t.served++
	if it.fn != nil && (it.guard == nil || *it.guard) {
		it.fn()
	}
	t.serveNext()
}

// QueueLen reports the number of items waiting (not counting the one in
// service).
func (t *Thread) QueueLen() int { return t.high.n + t.normal.n }

// Busy reports whether the thread is currently serving an item.
func (t *Thread) Busy() bool { return t.busy }

// BusyTime returns the cumulative service time charged so far.
func (t *Thread) BusyTime() Time { return t.busyNS }

// Served returns the number of completed work items.
func (t *Thread) Served() uint64 { return t.served }

// ThreadPool is a set of threads with least-loaded dispatch, modelling the
// worker threads of one machine.
type ThreadPool struct {
	Threads []*Thread
	rr      int
}

// NewThreadPool creates n threads named prefix/0..n-1.
func NewThreadPool(eng *Engine, n int, prefix string) *ThreadPool {
	p := &ThreadPool{}
	for i := 0; i < n; i++ {
		p.Threads = append(p.Threads, NewThread(eng, prefix+"/"+itoa(i)))
	}
	return p
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	pos := len(b)
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(b[pos:])
}

// Size returns the number of threads in the pool.
func (p *ThreadPool) Size() int { return len(p.Threads) }

// Dispatch places work on the least-loaded thread (round-robin among ties).
func (p *ThreadPool) Dispatch(cost Time, fn func()) {
	p.pick().Do(cost, fn)
}

func (p *ThreadPool) pick() *Thread {
	best := -1
	bestLen := int(^uint(0) >> 1)
	n := len(p.Threads)
	for i := 0; i < n; i++ {
		idx := (p.rr + i) % n
		th := p.Threads[idx]
		l := th.QueueLen()
		if th.Busy() {
			l++
		}
		if l < bestLen {
			bestLen = l
			best = idx
			if l == 0 {
				break
			}
		}
	}
	p.rr = (best + 1) % n
	return p.Threads[best]
}

// ByIndex dispatches to a specific thread, used when the protocol shards
// work by thread id (e.g. FaRM recovery shards transactions by coordinator
// thread).
func (p *ThreadPool) ByIndex(i int) *Thread { return p.Threads[i%len(p.Threads)] }

// BusyTime sums service time across all threads.
func (p *ThreadPool) BusyTime() Time {
	var total Time
	for _, t := range p.Threads {
		total += t.BusyTime()
	}
	return total
}

// Utilization returns mean thread utilization over elapsed virtual time.
func (p *ThreadPool) Utilization(elapsed Time) float64 {
	if elapsed <= 0 || len(p.Threads) == 0 {
		return 0
	}
	return float64(p.BusyTime()) / float64(elapsed) / float64(len(p.Threads))
}
