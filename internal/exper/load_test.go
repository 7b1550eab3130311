package exper

import (
	"strings"
	"testing"

	"farm/internal/sim"
)

func tinyLoad(workload string) Load {
	return Load{
		Scale:    Scale{Machines: 3, Threads: 2, Subscribers: 200, Warehouses: 3, Accounts: 64, Regions: 2, Seed: 5},
		Workload: workload, Concurrency: 2, Warm: sim.Millisecond, Measure: sim.Millisecond,
	}
}

// TestEveryWorkloadSetsUp: each name of the workload table sets up on a
// 3-machine cluster and commits within a 1 ms window; an unknown name is
// an error that lists the valid ones.
func TestEveryWorkloadSetsUp(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			s, err := tinyLoad(wl.name).SetUp()
			if err != nil {
				t.Fatalf("set-up: %v", err)
			}
			if (s.TPCC != nil) != (wl.name == "tpcc") {
				t.Fatalf("TPCC set = %v for %s", s.TPCC != nil, wl.name)
			}
			w := s.Drive()
			if w.Committed == 0 || w.Events == 0 || w.Counters["tx_committed"]+w.Counters["kv_reads"] == 0 {
				t.Fatalf("empty window: %+v", w)
			}
			if len(w.Busy) != 3 || len(w.Busy[0]) != 2 {
				t.Fatalf("busy time shape %d×%d, want 3×2", len(w.Busy), len(w.Busy[0]))
			}
		})
	}
	_, err := tinyLoad("nope").SetUp()
	if err == nil || !strings.Contains(err.Error(), "tatp | tpcc | kv | bank") {
		t.Fatalf("unknown workload: got %v, want the error listing every name", err)
	}
}

// TestWindowIsDeterministic: two windows of one seed see the same
// committed and aborted operations, host events and messages.
func TestWindowIsDeterministic(t *testing.T) {
	var got [2]Window
	for i := range got {
		s, err := tinyLoad("tatp").SetUp()
		if err != nil {
			t.Fatal(err)
		}
		got[i] = s.Drive()
	}
	a, b := got[0], got[1]
	if a.Committed != b.Committed || a.Aborted != b.Aborted || a.Events != b.Events ||
		a.Net["msg_send"] != b.Net["msg_send"] || a.Start != b.Start {
		t.Fatalf("same seed, different windows:\n  %+v\n  %+v", a, b)
	}
}
