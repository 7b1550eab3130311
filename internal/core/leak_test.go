package core_test

import (
	"testing"

	"farm/internal/bank"
	"farm/internal/core"
	"farm/internal/loadgen"
	"farm/internal/sim"
	"farm/internal/tatp"
	"farm/internal/tpcc"
	"farm/internal/ycsb"
)

// TestPoolsDrainAfterTheLoad: a short mix of each workload on 9 machines,
// then the generator stops and the cluster drains. Every object a pool
// handed out — the machines', their log writers', their chunk pools' and
// the workload's — is back: an operation path that drops what it took, or
// a pool written by hand beside internal/pool, fails here, and so does a
// Tx waiting in its machine's pool that still holds a commit's write lists
// or written values, which alias application bytes. Lease traffic
// never stops, so the lease pools only stay within the messages in flight.
func TestPoolsDrainAfterTheLoad(t *testing.T) {
	type setup func(c *core.Cluster) (op loadgen.Op, owners []any, err error)
	for _, w := range []struct {
		name  string
		setup setup
	}{
		{"bank", func(c *core.Cluster) (loadgen.Op, []any, error) {
			w, err := bank.Setup(c, 512, 6, 1000)
			if err != nil {
				return nil, nil, err
			}
			return w.Mix(), []any{w}, nil
		}},
		{"tatp", func(c *core.Cluster) (loadgen.Op, []any, error) {
			w, err := tatp.Setup(c, 2000, 6)
			if err != nil {
				return nil, nil, err
			}
			return w.Mix(), []any{w, w.Subscriber, w.AccessInfo, w.SpecialFac, w.CallFwd}, nil
		}},
		{"tpcc", func(c *core.Cluster) (loadgen.Op, []any, error) {
			w, err := tpcc.Setup(c, tpcc.DefaultConfig(9))
			if err != nil {
				return nil, nil, err
			}
			return w.Mix(), []any{w}, nil
		}},
		{"ycsb", func(c *core.Cluster) (loadgen.Op, []any, error) {
			w, err := ycsb.Setup(c, 2000, 6)
			if err != nil {
				return nil, nil, err
			}
			return w.LookupOp(), []any{w, w.Table}, nil
		}},
	} {
		t.Run(w.name, func(t *testing.T) {
			c := core.New(core.Options{NumMachines: 9, Threads: 2, Seed: 1})
			op, owners, err := w.setup(c)
			if err != nil {
				t.Fatal(err)
			}
			g := loadgen.New(c, op)
			g.Start([]int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 2, 2)
			c.RunFor(5 * sim.Millisecond)
			g.Stop()
			c.RunFor(50 * sim.Millisecond) // truncations flushed, every log consumed
			if g.Committed() < 100 {
				t.Fatalf("only %d operations committed", g.Committed())
			}
			for _, m := range c.Machines {
				for _, s := range m.OpenPools() {
					t.Errorf("m%d: %s", m.ID, s)
				}
				if n := m.LeaseMessagesInUse(); n > 2*len(c.Machines) {
					t.Errorf("m%d: %d lease messages and carriers out of their pools, more than two per machine", m.ID, n)
				}
			}
			for _, o := range owners {
				for _, s := range core.OpenPoolsOf(o) {
					t.Errorf("%T: %s", o, s)
				}
			}
		})
	}
}
