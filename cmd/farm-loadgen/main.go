// farm-loadgen drives one workload at one load point and prints
// throughput, latency percentiles, protocol counters and the host
// allocations per committed operation — the tool for exploring the
// simulator's operating envelope by hand.
//
//	farm-loadgen -workload tatp -machines 9 -threads 8 -concurrency 4
//	farm-loadgen -workload tpcc -warehouses 36
//	farm-loadgen -workload kv -measure 100ms
//	farm-loadgen -workload bank -subscribers 4096
//	farm-loadgen -machines 100 -subscribers 10000 -regions 12 -warm 1ms -measure 9ms
//
// The cluster's log rings shrink with the machine count (exper.Scale).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"farm/internal/exper"
	"farm/internal/ring"
	"farm/internal/sim"
)

var (
	workload    = flag.String("workload", "tatp", exper.Workloads())
	machines    = flag.Int("machines", 9, "cluster size")
	threads     = flag.Int("threads", 8, "active worker threads per machine")
	concurrency = flag.Int("concurrency", 4, "transactions in flight per thread")
	subscribers = flag.Uint64("subscribers", 2000, "TATP subscribers / KV keys / bank accounts")
	regions     = flag.Int("regions", 6, "regions the TATP / KV / bank tables are spread over")
	warehouses  = flag.Int("warehouses", 18, "TPC-C warehouses")
	warm        = flag.Duration("warm", 5*time.Millisecond, "warmup (simulated)")
	measure     = flag.Duration("measure", 50*time.Millisecond, "measurement window (simulated)")
	seed        = flag.Uint64("seed", 1, "simulation seed")
)

func main() {
	flag.Parse()
	s, err := exper.Load{
		Scale: exper.Scale{Machines: *machines, Threads: *threads, Subscribers: *subscribers,
			Warehouses: *warehouses, Accounts: int(*subscribers), Regions: *regions, Seed: *seed},
		Workload: *workload, Concurrency: *concurrency,
		Warm: sim.Time(warm.Nanoseconds()), Measure: sim.Time(measure.Nanoseconds()),
	}.SetUp()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	c, g := s.C, s.G
	// The fabric line counts from here, the load's start, warm-up included.
	fabric := c.Net.Counters.Snapshot()
	w := s.Drive()
	tput := g.ThroughputPerSecond(w.Start, w.Start+s.Measure)

	fmt.Printf("workload=%s machines=%d threads=%d concurrency=%d (simulated %v + %v)\n",
		*workload, *machines, *threads, *concurrency, *warm, *measure)
	fmt.Printf("throughput: %.0f ops/s  (%.0f per machine)\n", tput, tput/float64(*machines))
	fmt.Printf("latency:    p50=%v p90=%v p99=%v max=%v\n",
		g.Latency.Median(), g.Latency.Percentile(90), g.Latency.P99(), g.Latency.Max())
	fmt.Printf("aborts:     %d of %d attempts (%.2f%%)\n", g.Aborted(), g.Aborted()+g.Committed(),
		100*float64(g.Aborted())/float64(g.Aborted()+g.Committed()))
	fmt.Printf("            by cause, whole run: conflict=%d no_log_space=%d unavailable=%d\n",
		c.Counters.Get("tx_aborted"), c.Counters.Get("tx_no_log_space"), c.Counters.Get("tx_unavailable"))
	fmt.Printf("workers:    busy %% of the measured window, least busy/mean/busiest worker of each machine")
	var busyNs float64
	for i, busy := range w.Busy {
		lo, hi, sum := 101.0, 0.0, 0.0
		for _, b := range busy {
			busyNs += float64(b)
			pct := 100 * float64(b) / float64(measure.Nanoseconds())
			lo, hi, sum = min(lo, pct), max(hi, pct), sum+pct
		}
		if i%6 == 0 {
			fmt.Printf("\n           ")
		}
		fmt.Printf(" m%d %.0f/%.0f/%.0f ", i, lo, sum/float64(len(busy)), hi)
	}
	fmt.Println()
	// Worker time by what it was charged for, as each cost was queued: log
	// records (polled shards, and the per-object work of a machine's appends
	// to its own log), message receive and message send.
	cpu := w.Counters
	share := func(name string) float64 { return 100 * float64(cpu[name]) / max(busyNs, 1) }
	records, recv, send := share("cpu_records_ns"), share("cpu_msg_recv_ns"), share("cpu_msg_send_ns")
	fmt.Printf("cpu:        share of worker busy time over the measured window: records %.1f%%, msg receive %.1f%%, msg send %.1f%%, rest %.1f%%\n",
		records, recv, send, 100-records-recv-send)
	// A processed LOCK record answers with a LOCK-REPLY message unless its
	// coordinator is the primary that processed it.
	if locks := c.Counters.Get("rec LOCK"); locks > 0 {
		fmt.Printf("locks:      %d LOCK records, whole run: %.1f%% answered by local hand-off, the rest by LOCK-REPLY\n",
			locks, 100*(1-float64(c.Counters.Get("sent LOCK-REPLY"))/float64(locks)))
	}
	// Read validation over the window: read-set objects checked by a header
	// read (local or one-sided), VALIDATE RPCs, and read-only commits that
	// left their last read unchecked because they serialize there.
	ops := float64(max(w.Committed, 1))
	fmt.Printf("validate:   per committed op over the measured window: %.3f header reads, %.3f RPCs, %.3f last reads skipped\n",
		float64(cpu["validate_reads"])/ops, float64(cpu["validate_rpcs"])/ops, float64(cpu["validate_skipped"])/ops)
	// Explicit TRUNCATE records over the window: flushes of truncation ids
	// that no later log record carried within the flush interval.
	fmt.Printf("truncate:   %.4f explicit TRUNCATE records per committed op over the measured window\n",
		float64(cpu["explicit_truncate"])/ops)
	// Hash-table lookups over the window: the reads (one-sided or local) each
	// made, and where it was answered — the key's home bucket, a neighbour in
	// the same span read, the overflow chain, or nowhere.
	if lookups := float64(cpu["kv_found_home"] + cpu["kv_found_hood"] + cpu["kv_found_chain"] + cpu["kv_missed"]); lookups > 0 {
		pct := func(name string) float64 { return 100 * float64(cpu[name]) / lookups }
		fmt.Printf("kv:         %.3f reads per lookup over the measured window; answered in the home %.1f%%, a neighbour %.1f%%, the chain %.1f%%, missed %.1f%%\n",
			float64(cpu["kv_reads"])/lookups, pct("kv_found_home"), pct("kv_found_hood"), pct("kv_found_chain"), pct("kv_missed"))
	}
	if s.TPCC != nil {
		fmt.Printf("new orders: %d committed, median %v\n", s.TPCC.NewOrders, s.TPCC.NewOrderLat.Median())
		// A warm descent walks the machine's cached internal nodes and
		// reads its leaf, once, transactionally.
		trees := w.Descents
		descents := float64(max(trees[0], 1))
		perTx := float64(max(cpu["tx_committed"], 1))
		fmt.Printf("btree:      %.1f descents per committed tx, each %.2f transactional + %.2f lock-free reads; per committed tx %.2f fence misses, %.2f transactional fallbacks\n",
			descents/perTx, float64(trees[1])/descents, float64(trees[2])/descents,
			float64(trees[3])/perTx, float64(trees[4])/perTx)
	}
	diff := c.Net.Counters.Diff(fabric)
	fmt.Printf("fabric:     rdma_read=%d rdma_write=%d local_read=%d local_write=%d msg=%d\n",
		diff["rdma_read"], diff["rdma_write"], diff["local_read"], diff["local_write"], diff["msg_send"])
	// Host heap allocations of the whole process (simulator, protocol and
	// workload) over the measured window.
	fmt.Printf("allocs:     %.1f allocations, %.0f B allocated per committed op over the measured window (%d ops)\n",
		float64(w.Mallocs)/ops, float64(w.AllocBytes)/ops, w.Committed)
	// Region memory at the end of the run: what the regions reserve, and
	// the host memory behind them (data blocks are made on their first
	// write; a log ring holds the pages its live window spans, and its
	// machine a few spare pages).
	mem, mib := c.RegionMemory(), func(n int) float64 { return float64(n) / (1 << 20) }
	fmt.Printf("mem:        data regions %.1f of %.1f MiB materialized, log rings %d pages held (%.2f MiB) for %d rings of %.1f MiB; %.2f MiB per machine\n",
		mib(mem.DataMaterialized), mib(mem.Data), mem.FlatMaterialized/ring.PageSize, mib(mem.FlatMaterialized),
		mem.Flat/c.Opts.LogCapacity, mib(mem.Flat), mib(mem.DataMaterialized+mem.FlatMaterialized)/float64(len(c.Machines)))
}
