// Package audit implements replica state-integrity digests: an
// order-independent, incrementally maintainable summary of a region
// replica's committed state, plus the scan and drill-down helpers the
// cluster-wide audit protocol uses to compare a primary against its
// backups and localize the first divergent object.
//
// The digest algebra is a commutative composable hash: each slot of each
// classed block contributes ObjectHash(offset, header word, payload), and
// a replica's digest is the sum of all contributions modulo 2^64. Sums
// commute, so primaries and backups converge to the same digest no matter
// in which order they applied the same set of committed writes — the
// property that makes an O(1)-per-mutation incremental update sound:
// installing a write is Unfold(old slot state) followed by Fold(new slot
// state), regardless of what else happened in between.
//
// The lock bit is masked out of the header word before hashing: locks are
// transient coordination state that legitimately differs across replicas
// (only primaries lock), while version, allocation bit and payload are
// the replicated state §4/§5 promise to keep identical.
//
// Digest domain. A replica's digest covers every slot of every block
// classed in its region's class table (regionmem.Region.Classes),
// allocated or free — free slots carry residual bytes that re-replication
// must also reproduce. Blocks not classed yet are outside the domain until
// their class arrives — in the record of the allocation that first fills
// the block, or in a primary's header list (data recovery, audit) — and
// are folded in whole at that moment. The
// domain therefore always equals "what a fresh scan over the replica's
// own class table would hash", which is the invariant the per-replica
// self-check (incremental value vs. fresh scan) enforces.
package audit

import (
	"encoding/binary"
	"math/bits"

	"farm/internal/regionmem"
)

// The XXH64 primes. The digest is not cryptographic — it defends against
// bugs and bit rot, not adversaries.
const (
	prime1 = uint64(11400714785074694791)
	prime2 = uint64(14029467366897019519)
	prime3 = uint64(1609587929392839161)
	prime4 = uint64(9650029242287828579)
	prime5 = uint64(2870177450012600261)
)

// ObjectHash hashes one slot's state: its region offset (the seed), its
// header word (callers pass the lock-masked word), its payload bytes (the
// full slot extent past the header) and their length. It is XXH64-shaped:
// four lanes take 8 bytes each per 32-byte stripe, the word and the tail
// follow, and a final avalanche mixes every bit. Every step but the lane
// merge is a bijection of the state for a fixed rest of the input, so
// changing any one tail byte, the word or the offset of a short payload
// always changes the hash. It allocates nothing.
func ObjectHash(off int, word uint64, payload []byte) uint64 {
	seed, p := uint64(off), payload
	var h uint64
	if len(p) >= 32 {
		v1, v2, v3, v4 := seed+prime1+prime2, seed+prime2, seed, seed-prime1
		for ; len(p) >= 32; p = p[32:] {
			v1 = round(v1, binary.LittleEndian.Uint64(p))
			v2 = round(v2, binary.LittleEndian.Uint64(p[8:]))
			v3 = round(v3, binary.LittleEndian.Uint64(p[16:]))
			v4 = round(v4, binary.LittleEndian.Uint64(p[24:]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = mergeRound(h, v1)
		h = mergeRound(h, v2)
		h = mergeRound(h, v3)
		h = mergeRound(h, v4)
	} else {
		h = seed + prime5
	}
	h += uint64(len(payload))
	h = mix8(h, word)
	for ; len(p) >= 8; p = p[8:] {
		h = mix8(h, binary.LittleEndian.Uint64(p))
	}
	if len(p) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(p)) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		p = p[4:]
	}
	for _, b := range p {
		h ^= uint64(b) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

func round(acc, in uint64) uint64 {
	return bits.RotateLeft64(acc+in*prime2, 31) * prime1
}

func mergeRound(acc, v uint64) uint64 {
	return (acc^round(0, v))*prime1 + prime4
}

func mix8(h, in uint64) uint64 {
	return bits.RotateLeft64(h^round(0, in), 27)*prime1 + prime4
}

// Digest is the incrementally maintained commutative digest of one
// replica: the sum of its slots' ObjectHashes modulo 2^64. The zero value is
// the digest of an empty domain. Fold and Unfold are exact inverses, so
// maintaining a Digest costs two hashes per mutation and no allocation.
type Digest struct {
	sum uint64
}

// Fold adds one slot state's contribution. The word must already be
// lock-masked (regionmem.MaskLock); payload is the slot's full payload
// extent.
func (d *Digest) Fold(off int, word uint64, payload []byte) {
	d.sum += ObjectHash(off, word, payload)
}

// Unfold removes a contribution previously folded in.
func (d *Digest) Unfold(off int, word uint64, payload []byte) {
	d.sum -= ObjectHash(off, word, payload)
}

// Value returns the current digest.
func (d *Digest) Value() uint64 { return d.sum }

// Reseed overwrites the digest with a freshly scanned value (used after a
// repair re-replication, whose force-copies replace bytes that were never
// folded in because the corruption bypassed the write hooks).
func (d *Digest) Reseed(v uint64) { d.sum = v }

// ScanBlock hashes every slot of size class `class` in blk, the bytes of
// the block at region offset base. It is the ground truth the incremental
// digest is audited against: it reads the memory as it is, so silent
// corruption (which bypasses the incremental hooks) shows up here.
func ScanBlock(blk []byte, base, class int) uint64 {
	var sum uint64
	for so := 0; so+class <= len(blk); so += class {
		word := regionmem.MaskLock(regionmem.ReadHeader(blk, so))
		sum += ObjectHash(base+so, word, blk[so+regionmem.HeaderSize:so+class])
	}
	return sum
}

// FoldBlock adds classed block b's current contents to the digest, as the
// domain grows by a block when it is classed. It only reads: a block never
// written is folded as zeros and stays unmaterialized.
func (d *Digest) FoldBlock(r *regionmem.Region, b int) { d.sum += BlockDigest(r, b) }

// BlockDigest scans block b of r, for the region → block step of the
// drill-down diff. A block r has not classed is outside the domain and
// scans to 0.
func BlockDigest(r *regionmem.Region, b int) uint64 {
	class := r.Class(b)
	if class == 0 {
		return 0
	}
	return ScanBlock(r.Block(b), b*r.BlockSize(), class)
}

// ScanRegion hashes a replica's full digest domain: every slot of every
// classed block. It reads blocks never written as zeros and materializes
// none.
func ScanRegion(r *regionmem.Region) uint64 {
	var sum uint64
	for b := range r.Classes() {
		sum += BlockDigest(r, b)
	}
	return sum
}

// ObjectDigests returns the per-slot digests of classed block b in slot
// order, for the block → object step of the drill-down diff.
func ObjectDigests(r *regionmem.Region, b int) []uint64 {
	blk, class := r.Block(b), r.Class(b)
	out := make([]uint64, 0, len(blk)/class)
	for so := 0; so+class <= len(blk); so += class {
		word := regionmem.MaskLock(regionmem.ReadHeader(blk, so))
		out = append(out, ObjectHash(b*len(blk)+so, word, blk[so+regionmem.HeaderSize:so+class]))
	}
	return out
}

// FirstDivergent compares two digest sequences (per block or per slot)
// and returns the first differing index, or -1.
func FirstDivergent(a, b []uint64) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}
