package core

import (
	"cmp"
	"sort"

	"farm/internal/proto"
)

// Deterministic iteration order.
//
// The simulation's event sequence must be a pure function of the seed: the
// chaos harness and every failure-reproduction workflow depend on a seed
// replaying the exact run that produced a violation. Go randomizes map
// iteration order per range statement, so any loop whose body emits
// simulation events (ring writes, messages, one-sided reads, thread
// dispatches, timers) or mutates order-sensitive state (placement load,
// truncation queues) must walk its map in sorted key order. regionmem.Rebuild
// applies the same rule to block headers. Loops that only aggregate
// commutatively (counting, flag folding, map-to-map copies) may still range
// directly.

func intKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func regionKeys[V any](m map[uint32]V) []uint32 {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func u64Keys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func mtlKeys[V any](m map[mtl]V) []mtl {
	keys := make([]mtl, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return mtlLess(keys[i], keys[j]) })
	return keys
}

func mtlLess(a, b mtl) bool {
	if a.m != b.m {
		return a.m < b.m
	}
	if a.t != b.t {
		return a.t < b.t
	}
	return a.local < b.local
}

func txIDKeys[V any](m map[proto.TxID]V) []proto.TxID {
	keys := make([]proto.TxID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return txIDLess(keys[i], keys[j]) })
	return keys
}

func txIDLess(a, b proto.TxID) bool {
	if a.Config != b.Config {
		return a.Config < b.Config
	}
	if a.Machine != b.Machine {
		return a.Machine < b.Machine
	}
	if a.Thread != b.Thread {
		return a.Thread < b.Thread
	}
	return a.Local < b.Local
}

// addrCmp orders addresses by region, then offset.
func addrCmp(a, b proto.Addr) int {
	if a.Region != b.Region {
		return cmp.Compare(a.Region, b.Region)
	}
	return cmp.Compare(a.Off, b.Off)
}
