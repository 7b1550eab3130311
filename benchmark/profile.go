package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"runtime"
	"runtime/metrics"
	"strings"
)

// Wall-clock attribution. Every CPU sample and every sampled allocation is
// given to one bucket by walking its stack from the leaf to the innermost
// farm/internal/<pkg> frame, so runtime.memmove or mallocgc called from
// ring counts as ring: a layer's self time including the runtime work it
// causes. A stack with no such frame is gc when it is a collector worker,
// else other (the harness itself, scheduler idle, zk, nvram). The buckets
// partition the samples, so the shares sum to 1.

// buckets are the share names, in report order.
var buckets = []string{"sim", "fabric", "ring", "regionmem", "audit", "proto", "core", "kv", "btree", "workload", "stats", "instr", "other"}

const bucketGC = "gc"

var bucketOfPkg = map[string]string{
	"sim": "sim", "fabric": "fabric", "ring": "ring", "regionmem": "regionmem", "audit": "audit",
	"proto": "proto", "core": "core", "kv": "kv", "btree": "btree", "stats": "stats",
	"tatp": "workload", "tpcc": "workload", "bank": "workload", "ycsb": "workload", "loadgen": "workload",
	"trace": "instr", "history": "instr",
}

const internalPrefix = "farm/internal/"

// attribute classifies one stack of function names, leaf first. malloc
// says whether runtime.mallocgc is anywhere on it (an overlapping measure:
// what an allocation diet could buy at most).
func attribute(stack []string) (bucket string, malloc bool) {
	gc := false
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.mallocgc") {
			malloc = true
		}
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge") {
			gc = true
		}
		if bucket == "" && strings.HasPrefix(fn, internalPrefix) {
			pkg := fn[len(internalPrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if b, ok := bucketOfPkg[pkg]; ok {
				bucket = b
			} else {
				bucket = "other"
			}
		}
	}
	switch {
	case bucket != "":
		return bucket, malloc
	case gc:
		return bucketGC, malloc
	}
	return "other", malloc
}

// shares is samples per bucket.
type shares struct {
	by     map[string]float64
	total  float64
	malloc float64
}

func newShares() *shares { return &shares{by: map[string]float64{}} }

func (s *shares) add(stack []string, weight float64) {
	b, malloc := attribute(stack)
	s.by[b] += weight
	s.total += weight
	if malloc {
		s.malloc += weight
	}
}

func (s *shares) share(bucket string) float64 {
	if s.total == 0 {
		return 0
	}
	return s.by[bucket] / s.total
}

// addCPUProfile folds a runtime/pprof CPU profile (gzip-compressed
// profile.proto) into s, weighting each stack by its sample count.
func (s *shares) addCPUProfile(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	var stack []string
	for _, smp := range prof.samples {
		stack = stack[:0]
		for _, loc := range smp.locations {
			stack = append(stack, prof.locations[loc]...)
		}
		s.add(stack, float64(smp.count))
	}
	return nil
}

// allocShares attributes the allocation profile (objects allocated so far,
// scaled from the sampling rate by the runtime) the same way. The caller
// takes it after a runtime.GC, which publishes the profile, and subtracts
// two readings to cover a window.
func allocShares() *shares {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	s := newShares()
	var stack []string
	for i := range recs {
		stack = stack[:0]
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		s.add(stack, float64(recs[i].AllocObjects))
	}
	return s
}

// minus returns s − o per bucket.
func (s *shares) minus(o *shares) *shares {
	d := newShares()
	for b, v := range s.by {
		d.by[b] = v - o.by[b]
	}
	d.total, d.malloc = s.total-o.total, s.malloc-o.malloc
	return d
}

// --- a minimal profile.proto decoder (stdlib has none) ---

type profile struct {
	samples   []profSample
	locations map[uint64][]string // location id → function names, innermost first
}

type profSample struct {
	locations []uint64 // leaf first
	count     int64
}

var errProto = errors.New("benchmark: malformed profile.proto")

// protoFields calls fn for every field of one message. Varint and fixed
// fields arrive in v, length-delimited ones in b.
func protoFields(b []byte, fn func(field int, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errProto
			}
			b = b[size:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(field, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		default:
			return errProto
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeated reads a repeated varint field, packed or not.
func repeated(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	type location struct {
		id    uint64
		funcs []uint64 // function ids, innermost first
	}
	var (
		locs      []location
		funcNames = map[uint64]uint64{} // function id → string index
		strs      []string
		p         = &profile{locations: map[uint64][]string{}}
	)
	err := protoFields(raw, func(field, wire int, _ uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			var values []uint64
			err := protoFields(b, func(field, wire int, v uint64, b []byte) (err error) {
				switch field {
				case 1:
					s.locations, err = repeated(s.locations, wire, v, b)
				case 2:
					values, err = repeated(values, wire, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // sample_type[0] is samples/count
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var l location
			err := protoFields(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case 1:
					l.id = v
				case 4: // Line; the first is the innermost inlined frame
					return protoFields(b, func(field, _ int, v uint64, _ []byte) error {
						if field == 1 {
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs = append(locs, l)
		case 5: // Function
			var id, name uint64
			err := protoFields(b, func(field, _ int, v uint64, _ []byte) error {
				switch field {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, l := range locs {
		names := make([]string, 0, len(l.funcs))
		for _, f := range l.funcs {
			if i := funcNames[f]; i < uint64(len(strs)) {
				names = append(names, strs[i])
			}
		}
		p.locations[l.id] = names
	}
	return p, nil
}

// --- collector CPU, from runtime/metrics ---

type gcCPU struct{ gc, busy float64 }

// readGCCPU reads the runtime's CPU-time estimates. They are refreshed at
// the end of each collection, and the run shape collects at both window
// edges.
func readGCCPU() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return gcCPU{gc: f(0), busy: f(1) - f(2)}
}

// fracSince is the collector's share of the CPU the process used since o.
func (g gcCPU) fracSince(o gcCPU) float64 {
	if g.busy <= o.busy {
		return 0
	}
	return (g.gc - o.gc) / (g.busy - o.busy)
}
