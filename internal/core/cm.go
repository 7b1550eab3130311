package core

import (
	"slices"
	"sort"

	"farm/internal/nvram"
	"farm/internal/proto"
)

// cmState is the configuration manager's authoritative view (§3): the
// region → replicas mapping, locality constraints, and allocation progress.
// It exists only on the machine currently acting as CM; a new CM rebuilds
// it during reconfiguration (the cost the paper measures in Figure 11).
type cmState struct {
	// regions is indexed by region id. The CM numbers regions 1, 2, 3, ...:
	// the next one gets len(regions), and entry 0 is never used.
	regions []cmRegion

	// regionsActive tracks REGIONS-ACTIVE reports during recovery, by
	// machine id.
	regionsActive []bool

	// The NEW-CONFIG round (becomeCM): the configuration it collects acks
	// for, the machines removed since this CM's last commit, and whether
	// some lease they may hold was not granted by this CM (commitWait).
	ackCfg    uint64
	removed   []int
	unbounded bool
}

// cmRegion is the CM's entry for one region id it has handed out.
type cmRegion struct {
	rm       *proto.RegionMap // nil until the allocation commits
	locality uint32           // co-located target region, 0 for none
}

func newCMState() *cmState {
	return &cmState{regions: make([]cmRegion, 1)}
}

// region returns the entry for a region id, nil for one never handed out.
func (cm *cmState) region(id uint32) *cmRegion {
	if uint64(id) >= uint64(len(cm.regions)) {
		return nil
	}
	return &cm.regions[id]
}

// mapping returns the placement of a region, nil if none was committed.
func (cm *cmState) mapping(id uint32) *proto.RegionMap {
	if r := cm.region(id); r != nil {
		return r.rm
	}
	return nil
}

// AllocateRegion asks the CM for a new region, optionally co-located with
// the region containing hint (§3's locality constraint). cb receives the
// new region id, or ErrUnavailable if the CM does not answer.
func (m *Machine) AllocateRegion(hint uint32, cb func(region uint32, err error)) {
	req := &proto.AllocRegionReq{Size: m.c.Opts.Layout.RegionSize}
	if hint != 0 {
		req.Locality = hint
		req.HasHint = true
	}
	req.ID = m.call(int(m.config.CM), req, func(resp interface{}, err error) {
		if err != nil {
			m.c.Counters.Inc("region_alloc_stalled", 1)
			cb(0, err)
			return
		}
		r := resp.(*proto.AllocRegionResp)
		if !r.OK {
			cb(0, ErrNoSpace)
			return
		}
		m.setMapping(&r.Map)
		cb(r.Map.Region, nil)
	})
	m.send(int(m.config.CM), req)
}

// onAllocRegionReq runs at the CM: pick replicas, then run the two-phase
// prepare/commit of §3 so the mapping is valid and replicated at all region
// replicas before use.
func (m *Machine) onAllocRegionReq(from int, req *proto.AllocRegionReq) {
	if m.cm == nil {
		m.send(from, &rpcReply{ID: req.ID, Body: &proto.AllocRegionResp{}})
		return
	}
	var target *proto.RegionMap
	if req.HasHint {
		target = m.cm.mapping(req.Locality)
	}
	region := uint32(len(m.cm.regions))
	replicas := m.placeReplicas(&m.config, nil, m.c.Opts.Replication, target, int(region))
	if len(replicas) < m.c.Opts.Replication {
		m.send(from, &rpcReply{ID: req.ID, Body: &proto.AllocRegionResp{}})
		return
	}
	rm := proto.RegionMap{
		Region:            region,
		Replicas:          replicas,
		Size:              req.Size,
		LastPrimaryChange: m.config.ID,
		LastReplicaChange: m.config.ID,
	}
	entry := cmRegion{}
	if target != nil {
		entry.locality = req.Locality
	}
	m.cm.regions = append(m.cm.regions, entry)
	// Each prepare is a call. A refusal, or a call that failed because its
	// replica left the configuration or did not answer in time, counts
	// against the allocation; after the last call ends the CM commits or
	// aborts.
	awaiting, failed := len(replicas), false
	prepared := func(resp interface{}, err error) {
		failed = failed || err != nil || !resp.(*proto.AllocRegionPrepared).OK
		if awaiting--; awaiting > 0 {
			return
		}
		if failed {
			for _, r := range replicas {
				m.send(int(r), &proto.AllocRegionCommit{Region: region}) // empty map = abort
			}
			m.send(from, &rpcReply{ID: req.ID, Body: &proto.AllocRegionResp{}})
			return
		}
		m.cm.region(region).rm = &rm
		m.setMapping(&rm)
		for _, r := range replicas {
			m.send(int(r), &proto.AllocRegionCommit{Region: region, Map: rm})
		}
		// Announce the mapping to every other member so caches stay warm.
		for _, member := range m.config.Machines {
			m.send(int(member), &proto.MappingResp{OK: true, Map: rm})
		}
		m.send(from, &rpcReply{ID: req.ID, Body: &proto.AllocRegionResp{OK: true, Map: rm}})
	}
	for _, r := range replicas {
		prep := &proto.AllocRegionPrepare{Region: region, Size: req.Size}
		prep.ID = m.call(int(r), prep, prepared)
		m.send(int(r), prep)
	}
}

// onAllocPrepare runs at a selected replica: reserve the NVRAM.
func (m *Machine) onAllocPrepare(src int, req *proto.AllocRegionPrepare) {
	_, err := m.store.AllocateData(toNVRAM(req.Region), m.c.Opts.Layout)
	m.send(src, &proto.AllocRegionPrepared{ID: req.ID, Region: req.Region, OK: err == nil})
}

// onAllocCommit finalizes (or aborts) a prepared region at a replica.
func (m *Machine) onAllocCommit(msg *proto.AllocRegionCommit) {
	if len(msg.Map.Replicas) == 0 {
		m.store.Free(toNVRAM(msg.Region))
		return
	}
	mem := m.store.Data(toNVRAM(msg.Region))
	rs := m.growRegion(msg.Region)
	if mem == nil || rs == nil {
		return
	}
	cp := msg.Map
	rs.mapping = &cp
	m.installReplica(msg.Region, mem, cp.Size, int(cp.Replicas[0]) == m.ID)
}

// placeReplicas extends have to count members of cfg, balancing hosted
// region counts subject to failure-domain separation. A locality target's
// members come first, so placement follows the target's replica set (§3:
// "the region is co-located with a target region when the application
// specifies a locality constraint"); the rest fill by load, ties broken by
// a rotation so primaries spread across the cluster.
func (m *Machine) placeReplicas(cfg *proto.Config, have []uint16, count int, target *proto.RegionMap, rotate int) []uint16 {
	out := append([]uint16(nil), have...)
	if target != nil {
		for _, r := range target.Replicas {
			if len(out) >= count {
				break
			}
			if cfg.Member(r) && !slices.Contains(out, r) {
				out = append(out, r)
			}
		}
	}
	if len(out) >= count {
		return out
	}
	load := make(map[uint16]int)
	if m.cm != nil {
		for i := range m.cm.regions {
			if rm := m.cm.regions[i].rm; rm != nil {
				for _, r := range rm.Replicas {
					load[r]++
				}
			}
		}
	}
	usedDomains := make(map[int]bool)
	used := make(map[uint16]bool)
	for _, r := range out {
		used[r] = true
		usedDomains[cfg.Domains[r]] = true
	}
	candidates := append([]uint16(nil), cfg.Machines...)
	n := len(candidates)
	rank := func(x uint16) int { return (int(x) + rotate) % max(n, 1) }
	sort.Slice(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if load[a] != load[b] {
			return load[a] < load[b]
		}
		return rank(a) < rank(b)
	})
	atCapacity := func(c uint16) bool {
		cap := m.c.Opts.MaxRegionsPerMachine
		return cap > 0 && load[c] >= cap
	}
	// First pass: respect failure-domain separation and capacity (§3).
	for _, c := range candidates {
		if len(out) == count {
			return out
		}
		if used[c] || atCapacity(c) || usedDomains[cfg.Domains[c]] {
			continue
		}
		out = append(out, c)
		used[c] = true
		usedDomains[cfg.Domains[c]] = true
	}
	// Second pass: relax domain separation if the cluster is too small
	// (capacity is never relaxed).
	for _, c := range candidates {
		if len(out) == count {
			return out
		}
		if used[c] || atCapacity(c) {
			continue
		}
		out = append(out, c)
		used[c] = true
	}
	return out
}

// toNVRAM converts a FaRM region id to its NVRAM store key.
func toNVRAM(region uint32) nvram.RegionID { return nvram.RegionID(region) }
