package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"farm/internal/sim"
)

// spanLog keeps the harness's own spans in memory and writes them out when
// the benchmark ends, as Chrome trace_event JSON (chrome://tracing,
// ui.perfetto.dev). Two clocks, two processes in the viewer: pid 1 is host
// wall time (core.New, workload.Setup, warm-up, each RunFor sub-window,
// checks); pid 2 is virtual time (sampled operations from issue to done,
// named by kind, one row per client thread). A nil *spanLog records
// nothing, which is how untraced passes run.
type spanLog struct {
	t0    time.Time
	spans []span
}

type span struct {
	name     string
	pid, tid int
	startUs  float64
	durUs    float64
	ok       bool
}

const (
	pidWall    = 1
	pidVirtual = 2
)

// wall opens a host-time span and returns the function that closes it.
func (l *spanLog) wall(name string) (end func()) {
	if l == nil {
		return func() {}
	}
	if l.t0.IsZero() {
		l.t0 = time.Now()
	}
	start := time.Since(l.t0)
	return func() {
		l.spans = append(l.spans, span{name: name, pid: pidWall,
			startUs: float64(start) / 1e3, durUs: float64(time.Since(l.t0)-start) / 1e3, ok: true})
	}
}

// virtual records one operation in virtual time.
func (l *spanLog) virtual(kind string, machine, thread int, begin, end sim.Time, ok bool) {
	l.spans = append(l.spans, span{name: kind, pid: pidVirtual, tid: machine*100 + thread,
		startUs: begin.Micros(), durUs: (end - begin).Micros(), ok: ok})
}

func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`+"\n")
	fmt.Fprintf(w, `{"ph":"M","pid":%d,"name":"process_name","args":{"name":"host wall time"}},`+"\n", pidWall)
	fmt.Fprintf(w, `{"ph":"M","pid":%d,"name":"process_name","args":{"name":"virtual time (sampled operations)"}}`, pidVirtual)
	for _, s := range l.spans {
		fmt.Fprintf(w, ",\n"+`{"ph":"X","pid":%d,"tid":%d,"name":%q,"cat":"benchmark","ts":%.3f,"dur":%.3f,"args":{"committed":%t}}`,
			s.pid, s.tid, s.name, s.startUs, s.durUs, s.ok)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
