package perfecthash

import (
	"fmt"
	"sort"
)

// compact.go — the hash-and-displace table behind the oracle image's slot
// slab. Compared with a classic two-level FKS table (~2.2n slots plus a
// per-bucket header) it keeps the two-load probe while storing exactly
// CompactSlots(n) ≈ 1.06n slots plus one uint16 displacement per λ keys:
//
//	bucket  = h(key, seed)            mod CompactBuckets(n)
//	slot    = h(key, seed ⊕ disp[b])  mod CompactSlots(n)
//
// Buckets are placed largest-first, each trying displacements 0..65535
// until its keys land on free, pairwise-distinct slots (Belazzougui,
// Botelho & Dietzfelbinger's "hash, displace and compress", minus the
// entropy coding — the displacement array stays flat so a probe is two
// loads off a byte slab). Construction is deterministic in (keys, seed).

const (
	// compactLambda is the average bucket load; 4 keys per displacement
	// entry costs 0.5 bytes of displacement per key.
	compactLambda = 4
	// compactDispLimit bounds the per-bucket displacement search; uint16
	// displacements keep the slab at 2 bytes per bucket.
	compactDispLimit = 1 << 16
	// compactSeedStep folds the displacement into the hash seed; the odd
	// golden-ratio constant makes successive displacements behave as
	// independent family members.
	compactSeedStep = 0x9e3779b97f4a7c15
	// compactAttempts bounds the global-seed retries before construction
	// reports failure (expected: the first seed succeeds).
	compactAttempts = 64
)

// CompactBuckets returns the displacement-array length for an n-key compact
// table: ⌈n/λ⌉, at least 1.
func CompactBuckets(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + compactLambda - 1) / compactLambda
}

// CompactSlots returns the slot-array length for an n-key compact table:
// n plus ~6% slack (load factor ≈ 0.94), at least 1. The slack is what
// keeps the tail of the displacement search short.
func CompactSlots(n int) int {
	if n <= 0 {
		return 1
	}
	return n + n/16 + 1
}

// CompactBucketOf returns key's bucket in a table of nb buckets under seed.
//
//sealint:hotpath
func CompactBucketOf(key, seed uint64, nb int) int {
	return hash(key, seed, nb)
}

// CompactSlotOf returns key's slot in a table of nSlots slots under seed
// and its bucket's displacement d.
//
//sealint:hotpath
func CompactSlotOf(key, seed uint64, d uint16, nSlots int) int {
	return hash(key, seed+compactSeedStep*(uint64(d)+1), nSlots)
}

// BuildCompact constructs the compact table over keys: disp is the
// per-bucket displacement array (CompactBuckets(len(keys)) entries), slotOf
// maps key index i to its slot in [0, CompactSlots(len(keys))), and
// usedSeed is the seed the probe functions must be given (the input seed,
// re-derived until placement succeeds). Construction is deterministic in
// (keys, seed) and fails only on duplicate keys or pathological inputs.
func BuildCompact(keys []uint64, seed uint64) (disp []uint16, slotOf []int32, usedSeed uint64, err error) {
	nb := CompactBuckets(len(keys))
	ns := CompactSlots(len(keys))
	for attempt := 0; attempt < compactAttempts; attempt++ {
		s := mix(seed + compactSeedStep*uint64(attempt))
		if disp, slotOf, ok := placeCompact(keys, s, nb, ns); ok {
			return disp, slotOf, s, nil
		}
	}
	return nil, nil, 0, fmt.Errorf("perfecthash: compact build failed after %d seeds (duplicate keys?)", compactAttempts)
}

// placeCompact attempts one full placement under seed: group keys into
// buckets, then place buckets largest-first by searching displacements.
func placeCompact(keys []uint64, seed uint64, nb, ns int) ([]uint16, []int32, bool) {
	byBucket := make([][]int32, nb)
	for i, k := range keys {
		b := CompactBucketOf(k, seed, nb)
		byBucket[b] = append(byBucket[b], int32(i))
	}
	order := make([]int, nb)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		bi, bj := order[i], order[j]
		if len(byBucket[bi]) != len(byBucket[bj]) {
			return len(byBucket[bi]) > len(byBucket[bj])
		}
		return bi < bj
	})

	taken := make([]bool, ns)
	disp := make([]uint16, nb)
	slotOf := make([]int32, len(keys))
	var tmp []int32
	for _, b := range order {
		ids := byBucket[b]
		if len(ids) == 0 {
			continue
		}
		placed := false
	search:
		for d := 0; d < compactDispLimit; d++ {
			tmp = tmp[:0]
			for _, id := range ids {
				s := int32(CompactSlotOf(keys[id], seed, uint16(d), ns))
				if taken[s] {
					continue search
				}
				for _, prev := range tmp {
					if prev == s {
						continue search
					}
				}
				tmp = append(tmp, s)
			}
			for j, id := range ids {
				taken[tmp[j]] = true
				slotOf[id] = tmp[j]
			}
			disp[b] = uint16(d)
			placed = true
			break
		}
		if !placed {
			return nil, nil, false
		}
	}
	return disp, slotOf, true
}
