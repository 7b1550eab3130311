package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"

	"farm/internal/core"
	"farm/internal/sim"
	"farm/internal/stats"
	"farm/internal/trace"
)

// layerProbe collects what only the traced pass measures: the program's
// own sampled spans (Options.Trace, 1 transaction in 8), the engine's and
// the rings' state at sub-window edges, and the CPU and allocation
// profiles over the window. Everything it reads is a public field or
// method; nothing inside the program is changed for it.
type layerProbe struct {
	c       *core.Cluster
	from    sim.Time // spans that began before the window are not counted
	nextSeq []uint64 // per trace buffer: records below it are already folded in

	open  map[trace.SpanID]*openSpan
	spans map[string]*hist // closed "tx" spans by name
	// Committed transactions that ran at least one commit phase: their
	// span, the part before the first phase, the part the phases cover.
	txN                     uint64
	txDur, txExec, txPhases sim.Time

	pending      []int
	minFreeFrac  float64
	reservedPeak int
	appended0    uint64
	appended     uint64

	cpuBuf bytes.Buffer
	cpu    *shares
	alloc0 *shares
	alloc  *shares
	err    error
}

type openSpan struct {
	name   string
	start  sim.Time
	parent trace.SpanID
	// tx spans only:
	firstPhase, phaseOpen sim.Time
	covered               sim.Time
}

var phaseNames = map[string]bool{"LOCK": true, "VALIDATE": true, "COMMIT-BACKUP": true, "COMMIT-PRIMARY": true}

// memProfileRate is the allocation-profile sampling rate of the traced
// pass (bytes); the untraced pass keeps the runtime's default.
const memProfileRate = 4 << 10

// newLayerProbe is called after the GC that precedes the window, which is
// what publishes the allocation profile it reads as the baseline.
func newLayerProbe(c *core.Cluster) *layerProbe {
	lp := &layerProbe{
		c: c, from: c.Now(), nextSeq: make([]uint64, len(c.Machines)+1),
		open: map[trace.SpanID]*openSpan{}, spans: map[string]*hist{},
		minFreeFrac: 1, cpu: newShares(),
	}
	// A fresh set, so that delivery latencies cover the window and not
	// set-up; the transport records through the cluster's field.
	c.MsgLatency = stats.NewLatencySet()
	lp.alloc0 = allocShares()
	lp.appended0 = lp.logSpace()
	return lp
}

// edge samples engine and ring state and folds in the trace records that
// arrived since the last edge, before the per-machine rings overwrite them.
func (lp *layerProbe) edge() {
	lp.pending = append(lp.pending, lp.c.Eng.Pending())
	lp.appended = lp.logSpace() - lp.appended0
	lp.harvest()
}

// logSpace reads every log writer's free/reserved/appended state and
// returns the bytes appended so far, cluster-wide.
func (lp *layerProbe) logSpace() (appended uint64) {
	capacity := float64(lp.c.Opts.LogCapacity)
	for _, m := range lp.c.Machines {
		if !m.Alive() {
			continue
		}
		for _, w := range m.LogSpaceReport() {
			free, reserved := w[0], w[1]
			if f := float64(free) / capacity; f < lp.minFreeFrac {
				lp.minFreeFrac = f
			}
			if reserved > lp.reservedPeak {
				lp.reservedPeak = reserved
			}
			appended += uint64(w[2])
		}
	}
	return appended
}

func (lp *layerProbe) harvest() {
	for _, r := range lp.c.Tracer.Records() {
		if r.Seq < lp.nextSeq[r.Machine] {
			continue
		}
		lp.nextSeq[r.Machine] = r.Seq + 1
		if r.Cat != "tx" {
			continue
		}
		switch r.Kind {
		case trace.KindBegin:
			if r.At < lp.from {
				continue
			}
			lp.open[r.Span] = &openSpan{name: r.Name, start: r.At, parent: r.Parent}
			if phaseNames[r.Name] {
				if tx := lp.open[r.Parent]; tx != nil {
					if tx.firstPhase == 0 {
						tx.firstPhase = r.At
					}
					tx.phaseOpen = r.At
				}
			}
		case trace.KindEnd:
			o := lp.open[r.Span]
			if o == nil {
				continue
			}
			delete(lp.open, r.Span)
			d := r.At - o.start
			if o.name == "tx" && r.Arg != 0 { // aborted
				continue
			}
			h := lp.spans[o.name]
			if h == nil {
				h = new(hist)
				lp.spans[o.name] = h
			}
			h.record(d)
			switch {
			case phaseNames[o.name]:
				if tx := lp.open[o.parent]; tx != nil {
					tx.covered += d
					tx.phaseOpen = 0
				}
			case o.name == "tx" && o.firstPhase > 0:
				// The span closes at the commit report, which the first
				// COMMIT-PRIMARY ack triggers; that phase's own span runs
				// on until the last ack, so only its part inside the
				// transaction counts.
				if o.phaseOpen > 0 {
					o.covered += r.At - o.phaseOpen
				}
				lp.txN++
				lp.txDur += d
				lp.txExec += o.firstPhase - o.start
				lp.txPhases += o.covered
			}
		}
	}
}

func (lp *layerProbe) startProfile() {
	lp.cpuBuf.Reset()
	if err := pprof.StartCPUProfile(&lp.cpuBuf); err != nil && lp.err == nil {
		lp.err = err
	}
}

func (lp *layerProbe) stopProfile() {
	pprof.StopCPUProfile()
	if err := lp.cpu.addCPUProfile(lp.cpuBuf.Bytes()); err != nil && lp.err == nil {
		lp.err = err
	}
}

// finish is called after the GC that follows the window.
func (lp *layerProbe) finish() {
	lp.alloc = allocShares().minus(lp.alloc0)
}

func (lp *layerProbe) span(name string) *hist {
	if h := lp.spans[name]; h != nil {
		return h
	}
	return new(hist)
}

// perLayer reports the per-layer metrics of BENCHMARK.json, every name on
// every workload; a metric that is not defined on this workload reads 0.
// ref is the untraced pass of the same invocation.
func (p *pass) perLayer(ref *pass) []metric {
	lp, c := p.layers, p.c
	cm := float64(p.rec.committed)
	per := func(n uint64) float64 { return float64(n) / cm }
	attempts := float64(p.attempts())
	vms := p.window.Millis()
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{Name: name, Value: v, Unit: unit}) }
	addN := func(name string, v float64, unit string, n uint64) {
		out = append(out, metric{Name: name, Value: v, Unit: unit, Samples: n})
	}
	micro := microResults()
	mic := func(unit string, names ...string) {
		for _, n := range names {
			add(n, micro[n], unit)
		}
	}

	// sim. The useful-work rate is the untraced pass's.
	untraced, spread := ref.txPerWsec()
	out = append(out, metric{Name: "sim.tx_per_wsec", Value: untraced, Unit: "tx/s", Clock: "W", Spread: spread})
	add("sim.events_per_wsec", p.eventsPerWsec(), "1/s")
	add("sim.events_per_tx", per(p.events()), "events/tx")
	maxPending := 0
	for _, n := range lp.pending {
		if n > maxPending {
			maxPending = n
		}
	}
	add("sim.pending_events", float64(maxPending), "count")
	mic("ns", "sim.after_step_ns", "sim.timer_stop_ns", "sim.thread_do_ns")

	// fabric
	add("fabric.rdma_reads_per_tx", per(p.net["rdma_read"]), "1/tx")
	add("fabric.rdma_read_bytes_per_tx", per(p.net["rdma_read_bytes"]), "B/tx")
	add("fabric.rdma_writes_per_tx", per(p.net["rdma_write"]), "1/tx")
	add("fabric.rdma_write_bytes_per_tx", per(p.net["rdma_write_bytes"]), "B/tx")
	add("fabric.local_ops_per_tx", per(p.net["local_read"]+p.net["local_write"]), "1/tx")
	add("fabric.msgs_per_tx", per(p.net["msg_send"]), "frames/tx")
	add("fabric.msg_bytes_per_tx", per(p.net["msg_send_bytes"]), "B/tx")
	var perFrame float64
	if frames := p.net["msg_send"]; frames > 0 { // a short window may send none
		perFrame = float64(p.net["msg_send_coalesced"]) / float64(frames)
	}
	add("fabric.msgs_per_frame", perFrame, "msgs/frame")
	add("fabric.ud_sends_per_vms", float64(p.net["ud_send"])/vms, "1/ms")
	add("fabric.msgs_lost", float64(p.net["msg_lost"]), "count")
	mic("ns", "fabric.read_ns", "fabric.write_ns", "fabric.send_ns", "fabric.sendbatch_ns_per_msg")
	mic("us", "fabric.read_vus", "fabric.write_vus", "fabric.send_vus")

	// ring
	add("ring.appended_bytes_per_tx", per(lp.appended), "B/tx")
	add("ring.min_free_frac", lp.minFreeFrac, "fraction")
	add("ring.reserved_bytes_peak", float64(lp.reservedPeak), "B")
	mic("ns", "ring.append_poll_truncate_ns")
	mic("allocs", "ring.append_allocs")

	// regionmem, audit, proto, stats
	mic("ns", "regionmem.alloc_free_ns", "regionmem.lock_commit_unlock_ns")
	mic("ms", "regionmem.rebuild_ms")
	mic("ns", "audit.fold_ns", "proto.lookup_sizeof_ns", "stats.hist_record_ns", "stats.counter_inc_ns")

	// transport. LOCK itself is a ring record (counted under ring and
	// fabric writes); the message the lock phase costs is its reply.
	add("transport.lock_msgs_per_tx", per(p.counts["sent LOCK-REPLY"]), "1/tx")
	delivery := stats.NewHistogram()
	for _, name := range c.MsgLatency.Names() {
		delivery.Merge(c.MsgLatency.Get(name))
	}
	addN("transport.delivery_p50_us", delivery.Median().Micros(), "us", delivery.Count())
	addN("transport.delivery_p99_us", delivery.P99().Micros(), "us", delivery.Count())
	lock := c.MsgLatency.Get("LOCK-REPLY")
	if lock == nil {
		lock = stats.NewHistogram()
	}
	addN("transport.lock_delivery_p50_us", lock.Median().Micros(), "us", lock.Count())
	addN("transport.lock_delivery_p99_us", lock.P99().Micros(), "us", lock.Count())

	// commit
	add("commit.started_per_op", per(p.counts["tx_commit_started"]), "1/tx")
	add("commit.lock_failed_per_attempt", float64(p.counts["lock_failed"])/attempts, "fraction")
	add("commit.stall_aborts", float64(p.counts["tx_stall_aborted"]), "count")
	add("commit.explicit_truncates_per_tx", per(p.counts["explicit_truncate"]), "1/tx")
	for _, ph := range []struct{ metric, span string }{
		{"read", "read"}, {"lock", "LOCK"}, {"validate", "VALIDATE"}, {"backup", "COMMIT-BACKUP"}, {"primary", "COMMIT-PRIMARY"},
	} {
		h := lp.span(ph.span)
		addN("commit."+ph.metric+"_mean_us", us(h.mean()), "us", h.n)
		addN("commit."+ph.metric+"_p99_us", us(h.percentile(99)), "us", h.n)
	}
	addN("commit.truncate_lag_mean_us", us(lp.span("TRUNCATE").mean()), "us", lp.span("TRUNCATE").n)
	var execMean, residual float64
	if lp.txN > 0 {
		execMean = float64(lp.txExec) / float64(lp.txN)
		residual = 1 - float64(lp.txExec+lp.txPhases)/float64(lp.txDur)
	}
	addN("commit.execute_mean_us", us(execMean), "us", lp.txN)
	addN("commit.residual_frac", residual, "fraction", lp.txN)
	mic("us", "commit.unloaded_rw_tx_us", "commit.unloaded_ro_tx_us")

	// recovery and lease
	rec := p.outage
	add("recovery.tput_ms", rec.tputMs, "ms")
	add("recovery.data_ms", rec.dataMs, "ms")
	for _, ms := range milestones {
		add("recovery."+ms.metric, rec.marks[ms.mark], "ms")
	}
	add("recovery.recovering_txs", float64(p.counts["recovering_tx_found"]), "count")
	add("recovery.regions_rereplicated", float64(rec.regions), "count")
	add("recovery.dip_frac", rec.dipFrac, "fraction")
	add("recovery.audit_diverged_regions", float64(p.diverged), "count")
	var falseExpiries, reconfigs float64
	if p.sp.killFrac == 0 {
		falseExpiries, reconfigs = float64(c.Counters.Get("lease_expiry")), float64(c.Counters.Get("reconfig_started"))
	}
	add("lease.false_expiries", falseExpiries, "count")
	add("reconfig.started", reconfigs, "count")

	// kv and the workloads' own operation kinds
	var readsPerLookup float64
	if p.rec.lat[kindLookup].n > 0 {
		readsPerLookup = per(p.net["rdma_read"] + p.net["local_read"])
	}
	add("kv.reads_per_lookup", readsPerLookup, "reads/op")
	lat := &p.rec.lat
	addN("tatp.read_p50_us", us(lat[kindTatpRead].percentile(50)), "us", lat[kindTatpRead].n)
	addN("tatp.read_p99_us", us(lat[kindTatpRead].percentile(99)), "us", lat[kindTatpRead].n)
	addN("tatp.update_p50_us", us(lat[kindTatpUpdate].percentile(50)), "us", lat[kindTatpUpdate].n)
	addN("tatp.update_p99_us", us(lat[kindTatpUpdate].percentile(99)), "us", lat[kindTatpUpdate].n)
	addN("bank.transfer_p50_us", us(lat[kindTransfer].percentile(50)), "us", lat[kindTransfer].n)
	addN("bank.audit_p50_us", us(lat[kindAudit].percentile(50)), "us", lat[kindAudit].n)
	var noPerVsec, noP50, noP99 float64
	var noN uint64
	if w := p.drv.tpcc; w != nil {
		noN = w.NewOrderLat.Count()
		noPerVsec = float64(noN) / p.window.Seconds()
		noP50, noP99 = w.NewOrderLat.Median().Micros(), w.NewOrderLat.P99().Micros()
	}
	addN("tpcc.neworder_per_vsec", noPerVsec, "tx/s", noN)
	addN("tpcc.neworder_p50_us", noP50, "us", noN)
	addN("tpcc.neworder_p99_us", noP99, "us", noN)

	// instrumentation
	traced, _ := p.txPerWsec()
	add("trace.overhead_frac", 1-traced/untraced, "fraction")
	add("trace.dropped_records", float64(c.Tracer.Dropped()), "count")
	mic("ns", "trace.begin_end_ns", "history.record_ns")
	mic("tx/s", "history.check_tx_per_wsec")

	// Go runtime and attribution
	add("go.allocs_per_event", float64(p.mallocs)/float64(p.events()), "allocs/event")
	add("go.gc_cycles", float64(p.gcs), "count")
	add("go.gc_cpu_frac", p.gcFrac, "fraction")
	add("go.heap_sys_mb", p.sysMB, "MiB")
	for _, b := range buckets {
		add("cpu."+b+"_share", lp.cpu.share(b), "fraction")
	}
	add("cpu.gc_share", lp.cpu.share(bucketGC), "fraction")
	var mallocFrac float64
	if lp.cpu.total > 0 {
		mallocFrac = lp.cpu.malloc / lp.cpu.total
	}
	add("cpu.malloc_frac", mallocFrac, "fraction")
	for _, b := range buckets {
		add("alloc."+b+"_share", lp.alloc.share(b), "fraction")
	}
	if lp.err != nil {
		p.failed = append(p.failed, fmt.Sprintf("%s: profile: %v", p.sp.name, lp.err))
	}
	p.failed = append(p.failed, microFailed...)
	return out
}
