// Package trace is the deterministic cross-machine causality tracing
// subsystem. It records spans (Begin/End pairs) and point events stamped
// from sim.Engine virtual time into fixed-capacity per-machine rings, and
// links records across machines through a small Ctx (trace ID + parent
// span ID) that the typed transport piggybacks on its fabric frames.
//
// Determinism is load-bearing: the tracer consumes no randomness, schedules
// no events, and derives every identifier from per-buffer monotonic
// counters, so identical seed and configuration produce byte-identical
// exports. When tracing is disabled the per-machine buffer pointer is nil
// and every instrumentation site reduces to one nil check — no allocations
// and no behavioural change on the hot paths.
package trace

import (
	"sort"

	"farm/internal/sim"
)

// SpanID identifies one span. IDs encode the owning buffer, so they are
// unique across machines without coordination: (machine+1)<<40 | counter.
type SpanID uint64

// Kind discriminates record types in a buffer.
type Kind uint8

const (
	// KindBegin opens a span; a matching KindEnd with the same SpanID
	// closes it.
	KindBegin Kind = iota
	// KindEnd closes a span.
	KindEnd
	// KindInstant is a point event (annotations: lease expiry, nemesis
	// fault episodes, message sends/receives).
	KindInstant
)

// RecoveryTraceBit namespaces recovery trace IDs: all machines stamp
// records for the recovery of configuration C with RecoveryTraceBit|C, so
// one cluster-wide Figure 9 timeline assembles without coordination.
const RecoveryTraceBit = uint64(1) << 63

// Ctx is the causal context propagated with messages: which trace the
// sender was working for and which span was open. The zero Ctx means
// "untraced". Cat and Name ride along so End can emit a complete record
// without the buffer keeping an open-span table; they are static strings,
// so copying a Ctx never allocates.
type Ctx struct {
	Trace uint64
	Span  SpanID
	Cat   string
	Name  string
}

// Valid reports whether the context carries a trace.
func (c Ctx) Valid() bool { return c.Trace != 0 }

// Record is one trace event in a buffer.
type Record struct {
	At      sim.Time
	Machine int
	Kind    Kind
	Cat     string // category: "tx", "recovery", "msg", "fault", "audit"
	Name    string
	Trace   uint64
	Span    SpanID
	Parent  SpanID
	Arg     int64 // generic numeric attribute (charged bytes, machine id, …)
	Seq     uint64
}

// Options configures tracing on a cluster.
type Options struct {
	// Enabled turns the subsystem on. All other fields are ignored (and
	// no memory is allocated) when false.
	Enabled bool
	// SampleN / SampleM sample N of every M transactions per machine
	// (default 1 of 1: every transaction). Recovery, reconfiguration and
	// fault records are never sampled out — they are rare and are the
	// point of the timeline.
	SampleN, SampleM int
	// BufferCap is the per-machine ring capacity in records (default
	// 1<<16). The ring overwrites oldest records and counts drops.
	BufferCap int
	// RecoveryCap is the capacity of the separate per-machine ring for
	// recovery and fault records (default 1<<12). Keeping them out of the
	// bulk ring means a post-recovery flood of transaction records can
	// never evict the Figure 9 timeline.
	RecoveryCap int
}

func (o Options) withDefaults() Options {
	if o.SampleM <= 0 {
		o.SampleM = 1
	}
	if o.SampleN <= 0 {
		o.SampleN = 1
	}
	if o.SampleN > o.SampleM {
		o.SampleN = o.SampleM
	}
	if o.BufferCap <= 0 {
		o.BufferCap = 1 << 16
	}
	if o.RecoveryCap <= 0 {
		o.RecoveryCap = 1 << 12
	}
	return o
}

// Buffer is one machine's trace ring. All methods run on the simulation
// goroutine; there is no locking.
type Buffer struct {
	machine int
	bulk    ring   // transaction and message records
	rec     ring   // recovery and fault records, sheltered from the tx flood
	seq     uint64 // per-buffer monotonic, breaks same-timestamp ties
	nextID  uint64 // span/trace ID counter
	dropped uint64
	sampleN int
	sampleM int
	txSeen  int // sampling counter (N of every M)
}

// ring is a fixed-capacity overwrite-oldest record ring.
type ring struct {
	cap  int
	recs []Record
	head int // next write position once the ring is full
	full bool
}

func (g *ring) push(r Record, dropped *uint64) {
	if !g.full {
		g.recs = append(g.recs, r)
		if len(g.recs) == g.cap {
			g.full = true
		}
		return
	}
	g.recs[g.head] = r
	g.head = (g.head + 1) % g.cap
	*dropped++
}

// unwound appends the ring's records oldest-first.
func (g *ring) unwound(out []Record) []Record {
	if g.full {
		out = append(out, g.recs[g.head:]...)
		return append(out, g.recs[:g.head]...)
	}
	return append(out, g.recs...)
}

func newBuffer(machine int, o Options) *Buffer {
	return &Buffer{
		machine: machine,
		bulk:    ring{cap: o.BufferCap, recs: make([]Record, 0, o.BufferCap)},
		rec:     ring{cap: o.RecoveryCap, recs: make([]Record, 0, o.RecoveryCap)},
		sampleN: o.SampleN,
		sampleM: o.SampleM,
	}
}

// Machine returns the machine this buffer records for.
func (b *Buffer) Machine() int { return b.machine }

// Dropped returns how many records the ring overwrote.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// SampleTx returns whether the next transaction should be traced,
// advancing the deterministic N-of-every-M sampling counter.
func (b *Buffer) SampleTx() bool {
	s := b.txSeen % b.sampleM
	b.txSeen++
	return s < b.sampleN
}

func (b *Buffer) push(r Record) {
	r.Seq = b.seq
	b.seq++
	if r.Cat == "recovery" || r.Cat == "fault" || r.Cat == "audit" {
		b.rec.push(r, &b.dropped)
		return
	}
	b.bulk.push(r, &b.dropped)
}

func (b *Buffer) newID() uint64 {
	b.nextID++
	return uint64(b.machine+1)<<40 | b.nextID
}

// Begin opens a span and returns its context. traceID 0 allocates a fresh
// trace rooted here; parent 0 means a root span of that trace.
func (b *Buffer) Begin(cat, name string, at sim.Time, traceID uint64, parent SpanID, arg int64) Ctx {
	if traceID == 0 {
		traceID = b.newID()
	}
	span := SpanID(b.newID())
	b.push(Record{
		At: at, Machine: b.machine, Kind: KindBegin, Cat: cat, Name: name,
		Trace: traceID, Span: span, Parent: parent, Arg: arg,
	})
	return Ctx{Trace: traceID, Span: span, Cat: cat, Name: name}
}

// End closes the span identified by ctx. Ending an invalid context is a
// no-op so callers need no guards on error paths.
func (b *Buffer) End(ctx Ctx, at sim.Time, arg int64) {
	if !ctx.Valid() {
		return
	}
	b.push(Record{
		At: at, Machine: b.machine, Kind: KindEnd, Cat: ctx.Cat, Name: ctx.Name,
		Trace: ctx.Trace, Span: ctx.Span, Arg: arg,
	})
}

// Event records a point event. traceID 0 allocates a fresh trace (for
// standalone annotations like nemesis episodes).
func (b *Buffer) Event(cat, name string, at sim.Time, traceID uint64, parent SpanID, arg int64) {
	if traceID == 0 {
		traceID = b.newID()
	}
	b.push(Record{
		At: at, Machine: b.machine, Kind: KindInstant, Cat: cat, Name: name,
		Trace: traceID, Parent: parent, Arg: arg,
	})
}

// Set is the cluster-wide collection of buffers: one per machine plus one
// cluster-level buffer for events with no single machine owner (nemesis
// fault installation, kills).
type Set struct {
	opts    Options
	bufs    []*Buffer
	cluster *Buffer
}

// NewSet creates buffers for machines 0..machines-1 plus the cluster
// buffer. Callers should only construct a Set when tracing is enabled.
func NewSet(opts Options, machines int) *Set {
	o := opts.withDefaults()
	s := &Set{opts: o, cluster: newBuffer(machines, o)}
	s.bufs = make([]*Buffer, machines)
	for i := range s.bufs {
		s.bufs[i] = newBuffer(i, o)
	}
	return s
}

// Machine returns machine i's buffer (nil if out of range, so dynamically
// added clients degrade to untraced).
func (s *Set) Machine(i int) *Buffer {
	if s == nil || i < 0 || i >= len(s.bufs) {
		return nil
	}
	return s.bufs[i]
}

// Cluster returns the cluster-level buffer.
func (s *Set) Cluster() *Buffer { return s.cluster }

// Dropped sums ring overwrites across all buffers.
func (s *Set) Dropped() uint64 {
	n := s.cluster.Dropped()
	for _, b := range s.bufs {
		n += b.Dropped()
	}
	return n
}

// Records returns every record from every buffer in deterministic
// (At, Machine, Seq) order — the same stream Export renders.
func (s *Set) Records() []Record { return s.merged() }

// merged returns every record from every buffer in deterministic order:
// (At, Machine, Seq). Buffers are rings, so records are extracted oldest
// first before sorting.
func (s *Set) merged() []Record {
	var out []Record
	collect := func(b *Buffer) {
		out = b.bulk.unwound(out)
		out = b.rec.unwound(out)
	}
	for _, b := range s.bufs {
		collect(b)
	}
	collect(s.cluster)
	sortRecords(out)
	return out
}

// sortRecords orders records by (At, Machine, Seq) — a strict total order,
// so the result is independent of the input permutation.
func sortRecords(rs []Record) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Seq < b.Seq
	})
}
