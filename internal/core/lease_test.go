package core

import (
	"testing"

	"farm/internal/sim"
)

// Lease-protocol unit tests (§5.1).

func TestLeaseHandshakeKeepsClusterStable(t *testing.T) {
	// With everything healthy, no lease may expire over many renewals —
	// at durations each variant supports (§6.5): the shipping variant at
	// 5 ms, the normal-priority thread variant at 100 ms.
	for variant, lease := range map[LeaseVariant]sim.Time{
		LeaseUDThreadPri: 5 * sim.Millisecond,
		LeaseUDThread:    100 * sim.Millisecond,
	} {
		c := New(Options{NumMachines: 5, Seed: 17, LeaseDuration: lease, LeaseVariant: variant})
		c.RunFor(2 * sim.Second)
		if got := c.Counters.Get("lease_expiry"); got != 0 {
			t.Fatalf("%v: %d expiries on an idle healthy cluster", variant, got)
		}
		for _, m := range c.Machines {
			if m.config.ID != 1 {
				t.Fatalf("%v: spurious reconfiguration to %d", variant, m.config.ID)
			}
		}
	}
}

func TestLeaseRenewalIntervalQuantization(t *testing.T) {
	c := New(Options{NumMachines: 2, Seed: 1})
	lm := c.Machine(1).lease
	cases := []struct {
		lease sim.Time
		want  sim.Time
	}{
		{10 * sim.Millisecond, 2 * sim.Millisecond},
		{5 * sim.Millisecond, 1 * sim.Millisecond},
		{2 * sim.Millisecond, 500 * sim.Microsecond}, // 0.4ms rounds up to timer res
		{1 * sim.Millisecond, 500 * sim.Microsecond},
	}
	for _, tc := range cases {
		lm.duration = tc.lease
		if got := lm.renewInterval(); got != tc.want {
			t.Errorf("lease %v: interval %v, want %v (timer resolution %v)",
				tc.lease, got, tc.want, timerResolution)
		}
	}
}

func TestLeaseExpiryCountingWithRecoveryDisabled(t *testing.T) {
	// The Figure 16 methodology: expiries are counted, configuration never
	// changes.
	o := Options{NumMachines: 4, Seed: 23, LeaseDuration: 2 * sim.Millisecond, LeaseVariant: LeaseRPC}
	c := New(o)
	c.DisableRecovery = true
	c.RunFor(3 * sim.Second)
	if c.Counters.Get("lease_expiry") == 0 {
		t.Fatal("RPC variant with 2ms leases should show false positives")
	}
	for _, m := range c.Machines {
		if m.config.ID != 1 {
			t.Fatal("recovery ran despite DisableRecovery")
		}
	}
}

func TestLeaseVariantOrderingUnderStress(t *testing.T) {
	// The Figure 16 ladder: expiry counts must be monotone across
	// variants at a 5 ms lease.
	counts := map[LeaseVariant]uint64{}
	for _, v := range []LeaseVariant{LeaseRPC, LeaseUD, LeaseUDThread, LeaseUDThreadPri} {
		c := New(Options{NumMachines: 4, Seed: 29, LeaseDuration: 5 * sim.Millisecond, LeaseVariant: v})
		c.DisableRecovery = true
		c.RunFor(4 * sim.Second)
		counts[v] = c.Counters.Get("lease_expiry")
	}
	if counts[LeaseUDThreadPri] != 0 {
		t.Fatalf("UD+thread+pri at 5ms: %d expiries, want 0", counts[LeaseUDThreadPri])
	}
	if counts[LeaseRPC] == 0 || counts[LeaseUD] == 0 {
		t.Fatalf("shared-path variants show no expiries: %v", counts)
	}
	if counts[LeaseRPC] < counts[LeaseUD] {
		t.Fatalf("RPC (%d) should be worse than UD (%d)", counts[LeaseRPC], counts[LeaseUD])
	}
}

func TestDeadCMIsDetectedByMembers(t *testing.T) {
	c := New(Options{NumMachines: 4, Seed: 31, LeaseDuration: 3 * sim.Millisecond})
	c.RunFor(10 * sim.Millisecond)
	c.Kill(0)
	c.RunFor(200 * sim.Millisecond)
	// A backup CM must have taken over.
	for _, m := range c.Machines[1:] {
		if m.config.CM == 0 {
			t.Fatalf("machine %d still trusts the dead CM", m.ID)
		}
	}
}

func TestLeaseResetOnNewConfig(t *testing.T) {
	// After a CM change, leases must be re-established with the new CM
	// and keep the cluster stable afterwards.
	c := New(Options{NumMachines: 5, Seed: 37, LeaseDuration: 4 * sim.Millisecond})
	c.RunFor(10 * sim.Millisecond)
	c.Kill(0)
	c.RunFor(300 * sim.Millisecond)
	cfgAfter := c.Machine(1).config.ID
	// No further reconfigurations over a long quiet period.
	c.RunFor(1 * sim.Second)
	for _, m := range c.Machines[1:] {
		if m.config.ID != cfgAfter {
			t.Fatalf("config drifted from %d to %d after CM failover", cfgAfter, m.config.ID)
		}
	}
}

func TestZKOutageBlocksReconfigurationThenRecovers(t *testing.T) {
	// Vertical Paxos: without a Zookeeper majority no configuration can
	// change (§5: availability needs "a majority of replicas in the
	// Zookeeper service"). Once ZK returns, lease expiry retries drive the
	// reconfiguration through.
	c := New(Options{NumMachines: 5, Seed: 41, LeaseDuration: 4 * sim.Millisecond})
	c.RunFor(10 * sim.Millisecond)
	c.ZK.SetAvailable(false)
	c.Kill(3)
	c.RunFor(300 * sim.Millisecond)
	for _, m := range c.Machines {
		if m.Alive() && m.ConfigID() != 1 {
			t.Fatalf("configuration changed without Zookeeper: %d", m.ConfigID())
		}
	}
	c.ZK.SetAvailable(true)
	c.RunFor(400 * sim.Millisecond)
	for _, m := range c.Machines {
		if m.Alive() && m.config.Member(3) {
			t.Fatalf("machine %d still sees the victim after ZK recovery", m.ID)
		}
	}
}

func TestHierarchicalLeasesStableAndDetecting(t *testing.T) {
	// §5.1's two-level hierarchy: stable when healthy, detects a member
	// failure within ~2 lease durations (leader detects, reports to CM).
	o := Options{NumMachines: 9, Seed: 47, LeaseDuration: 5 * sim.Millisecond, LeaseGroupSize: 3}
	c := New(o)
	c.RunFor(500 * sim.Millisecond)
	if got := c.Counters.Get("lease_expiry"); got != 0 {
		t.Fatalf("%d expiries on a healthy hierarchical cluster", got)
	}
	for _, m := range c.Machines {
		if m.ConfigID() != 1 {
			t.Fatalf("spurious reconfiguration: %d", m.ConfigID())
		}
	}

	// Kill a NON-leader member (machine 4 is in group 1, led by 3).
	killAt := c.Now()
	c.Kill(4)
	c.RunFor(300 * sim.Millisecond)
	suspectAt, ok := c.TraceTime("suspect", killAt)
	if !ok {
		t.Fatal("member failure never detected through the hierarchy")
	}
	detect := suspectAt - killAt
	if detect > 3*o.LeaseDuration {
		t.Fatalf("hierarchical detection took %v (> 3 leases)", detect)
	}
	for _, m := range c.Machines {
		if m.Alive() && m.config.Member(4) {
			t.Fatalf("machine %d still sees the victim", m.ID)
		}
	}
	t.Logf("hierarchical member detection in %v (flat would be ≤ %v)", detect, o.LeaseDuration)
}

func TestHierarchicalLeaderFailure(t *testing.T) {
	o := Options{NumMachines: 9, Seed: 53, LeaseDuration: 5 * sim.Millisecond, LeaseGroupSize: 3}
	c := New(o)
	c.RunFor(30 * sim.Millisecond)
	// Machine 3 leads group 1: the CM holds its lease directly.
	c.Kill(3)
	c.RunFor(300 * sim.Millisecond)
	for _, m := range c.Machines {
		if m.Alive() && m.config.Member(3) {
			t.Fatalf("machine %d still sees the dead leader", m.ID)
		}
	}
	// The group's survivors re-home to the next leader (4) and stay
	// stable: no further reconfigurations.
	cfg := c.Machine(0).ConfigID()
	c.RunFor(500 * sim.Millisecond)
	if c.Machine(0).ConfigID() != cfg {
		t.Fatalf("config churn after leader failover: %d -> %d", cfg, c.Machine(0).ConfigID())
	}
}

// TestCMOutsideFirstGroupEvictsNoOne: the CM dies and machine 4 takes over.
// Under hierarchical leases 4 is not the first member of its group, yet it
// leads it: its group's members renew with it, and no healthy machine's
// lease lapses anywhere once the new configuration commits.
func TestCMOutsideFirstGroupEvictsNoOne(t *testing.T) {
	for _, size := range []int{0, 3} {
		o := Options{NumMachines: 9, Seed: 47, LeaseDuration: 5 * sim.Millisecond, LeaseGroupSize: size}
		c := New(o)
		c.RunFor(30 * sim.Millisecond)
		c.Kill(0)
		cm := c.Machine(4)
		cm.suspect(0)
		runUntil(t, c, sim.Second, func() bool { return cm.IsCM() && cm.configCommitted })
		cfg, expiries := cm.config, c.Counters.Get("lease_expiry")
		c.RunFor(300 * sim.Millisecond)
		if n := c.Counters.Get("lease_expiry"); n != expiries {
			t.Errorf("group size %d: %d lease expiries after configuration %d committed", size, n-expiries, cfg.ID)
		}
		for _, m := range c.Machines[1:] {
			if !m.config.Member(uint16(m.ID)) || m.config.ID != cfg.ID {
				t.Errorf("group size %d: healthy m%d at configuration %d (%v), want %d (%v)",
					size, m.ID, m.config.ID, m.config.Machines, cfg.ID, cfg.Machines)
			}
		}
	}
}

// TestSuspectReportNamingTheCM: the CM drops a SUSPECT-REPORT that names
// itself instead of moving to a configuration without itself, and a failed
// log write to the CM suspects the CM the §5.2 way: the CM's successors
// take over, and every survivor commits one configuration without it. (The
// evicted CM never hears of it and keeps suspecting its members, in vain.)
func TestSuspectReportNamingTheCM(t *testing.T) {
	c := New(Options{NumMachines: 5, Seed: 3, LeaseDuration: 5 * sim.Millisecond})
	c.RunFor(10 * sim.Millisecond)
	c.Machine(1).send(0, &suspectReport{Config: 1, Suspect: 0})
	c.RunFor(200 * sim.Millisecond)
	if n := c.Counters.Get("reconfig_started"); n != 0 {
		t.Fatalf("%d reconfigurations after a report naming the CM", n)
	}
	for _, m := range c.Machines {
		if m.config.ID != 1 || m.config.CM != 0 {
			t.Fatalf("m%d at configuration %d with CM %d, want 1 with CM 0", m.ID, m.config.ID, m.config.CM)
		}
	}

	c.Machine(2).reportWriteFailure(0)
	c.RunFor(200 * sim.Millisecond)
	cfg := c.Machine(1).config
	if cfg.Member(0) || !cfg.Member(cfg.CM) {
		t.Fatalf("configuration %d %v with CM %d, want one without m0 led by a member", cfg.ID, cfg.Machines, cfg.CM)
	}
	for _, m := range c.Machines[1:] {
		if m.config.ID != cfg.ID || !m.configCommitted {
			t.Fatalf("m%d at configuration %d (committed %v), want %d committed", m.ID, m.config.ID, m.configCommitted, cfg.ID)
		}
	}
	if cfg.ID != 2 {
		t.Fatalf("removing the CM took configurations up to %d, want one", cfg.ID)
	}
}

// Asymmetric-partition coverage (the nemesis layer's hardest lease cases).

// TestRxCutMachineIsEvicted: machine 3 can send (its lease requests reach
// the CM, so the CM keeps granting) but receives nothing — every grant is
// lost. Its own CM lease expires, it complains to the CM's successors, and
// the ensuing reconfiguration must evict it (probes into it fail), leaving
// the survivors agreeing on a configuration without it.
func TestRxCutMachineIsEvicted(t *testing.T) {
	c := New(Options{NumMachines: 6, Seed: 37, LeaseDuration: 3 * sim.Millisecond})
	c.RunFor(10 * sim.Millisecond)
	c.IsolateInbound(3)
	c.RunFor(400 * sim.Millisecond)
	c.RestoreMachine(3)
	c.RunFor(100 * sim.Millisecond)

	var cfg uint64
	for _, m := range c.Machines {
		if !m.alive || m.ID == 3 {
			continue
		}
		if !m.config.Member(uint16(m.ID)) {
			continue // itself evicted in the shuffle; judged by survivors
		}
		if m.config.Member(3) {
			t.Fatalf("machine %d still counts the deaf machine 3 as a member (config %d)", m.ID, m.config.ID)
		}
		if cfg == 0 {
			cfg = m.config.ID
		} else if m.config.ID != cfg {
			t.Fatalf("surviving members disagree: %d vs %d", m.config.ID, cfg)
		}
	}
	if cfg <= 1 {
		t.Fatalf("no reconfiguration happened (config %d)", cfg)
	}
}

// TestTxCutMachineIsEvicted: machine 2 hears everything but nothing it
// sends gets out — its lease requests never reach the CM, so the CM expires
// it and evicts it. NEW-CONFIG goes only to the new configuration's
// members, so the evicted machine never hears of its eviction; safety rests
// on it fencing itself: its own CM lease expires, its takeover probes fail
// (it is in the minority), and clients stay blocked from suspicion on.
func TestTxCutMachineIsEvicted(t *testing.T) {
	c := New(Options{NumMachines: 6, Seed: 41, LeaseDuration: 3 * sim.Millisecond})
	c.RunFor(10 * sim.Millisecond)
	c.IsolateOutbound(2)
	c.RunFor(300 * sim.Millisecond)

	cm := c.Machine(0)
	if cm.config.Member(2) {
		t.Fatalf("CM still counts the mute machine 2 as a member (config %d)", cm.config.ID)
	}
	mute := c.Machine(2)
	if mute.config.ID >= cm.config.ID {
		t.Fatalf("mute machine advanced to config %d despite sending nothing", mute.config.ID)
	}
	if !mute.clientsBlocked {
		t.Fatal("evicted machine that never learned the new config must fence clients")
	}
	for _, m := range c.Machines {
		if m.alive && m.config.Member(uint16(m.ID)) && m.ID != 2 && m.config.ID != cm.config.ID {
			t.Fatalf("member %d at config %d, CM at %d", m.ID, m.config.ID, cm.config.ID)
		}
	}
}

// TestReconfigSurvivesLostNewConfigAck: a member whose inbound links die
// right as reconfiguration starts can never receive NEW-CONFIG; the ack
// timeout must evict it instead of wedging the protocol with every client
// blocked forever.
func TestReconfigSurvivesLostNewConfigAck(t *testing.T) {
	c := New(Options{NumMachines: 6, Seed: 43, LeaseDuration: 3 * sim.Millisecond})
	c.RunFor(10 * sim.Millisecond)
	// Kill 5 to force a reconfiguration, and simultaneously deafen 4 so it
	// cannot ack the resulting NEW-CONFIG.
	c.Kill(5)
	c.IsolateInbound(4)
	c.RunFor(500 * sim.Millisecond)
	c.RestoreMachine(4)
	c.RunFor(100 * sim.Millisecond)

	cm := -1
	for _, m := range c.Machines {
		if m.alive && m.IsCM() && m.config.Member(uint16(m.ID)) {
			cm = m.ID
			break
		}
	}
	if cm == -1 {
		t.Fatal("no live CM after reconfiguration under a deaf member")
	}
	cfg := c.Machine(cm).config
	if cfg.Member(5) || cfg.Member(4) {
		t.Fatalf("config %d retains dead (5) or deaf (4) member: %v", cfg.ID, cfg.Machines)
	}
	// The commit must have gone through: members of the final config run
	// with leases armed (clients unblocked), not stuck awaiting COMMIT.
	for _, mem := range cfg.Machines {
		m := c.Machine(int(mem))
		if !m.configCommitted {
			t.Fatalf("member %d never saw NEW-CONFIG-COMMIT for config %d", m.ID, cfg.ID)
		}
	}
}
