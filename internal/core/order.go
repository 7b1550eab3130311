package core

import (
	"cmp"
	"slices"

	"farm/internal/proto"
)

// Deterministic iteration order.
//
// The simulation's event sequence must be a pure function of the seed: the
// chaos harness and every failure-reproduction workflow depend on a seed
// replaying the exact run that produced a violation. State kept per machine,
// per region, per block or per coordinator thread lives in tables
// (Machine.peers, Machine.regions, cmState.regions, peer.trunc, a region's
// class table of block headers) and iterates in index order. What remains
// in Go maps is sparse — transactions and the per-run sets of recovery —
// and Go randomizes map iteration order per range statement, so any loop
// over one whose body emits simulation events (ring writes, messages,
// one-sided reads, thread dispatches, timers, trace records) or mutates
// order-sensitive state walks sortedKeys. Loops that only aggregate
// commutatively (counting, flag folding, map-to-map copies) range directly.
// A coordinator's truncation work toward a peer is no map but a queue
// (truncQueue), in the order ids leave and acks pop them; dropping it when
// the peer leaves sorts it by id first, because retiring ends trace spans.

// sortedKeys returns m's keys in ascending order by cmp.
func sortedKeys[K comparable, V any](m map[K]V, cmp func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
}

func mtlCmp(a, b mtl) int {
	return cmp.Or(cmp.Compare(a.m, b.m), cmp.Compare(a.t, b.t), cmp.Compare(a.local, b.local))
}

func txIDCmp(a, b proto.TxID) int {
	return cmp.Or(cmp.Compare(a.Config, b.Config), cmp.Compare(a.Machine, b.Machine),
		cmp.Compare(a.Thread, b.Thread), cmp.Compare(a.Local, b.Local))
}

// addrCmp orders addresses by region, then offset.
func addrCmp(a, b proto.Addr) int {
	return cmp.Or(cmp.Compare(a.Region, b.Region), cmp.Compare(a.Off, b.Off))
}
