package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"seoracle/internal/perfecthash"
)

// query.go — the hot probe path of §3.4 over the image's fixed-stride
// slabs. A query reads two A_s rows of the paths slab and probes the CHD
// slot slab once per candidate node pair: bucket hash → one u16
// displacement load → slot hash → one key-compare-plus-distance load. Node
// ids read from the slabs are bounds-guarded before they index anything, so
// corrupt content (a mapped file is not checksummed on load) errors instead
// of faulting.

// checkIDs validates two POI ids on the hot probe path; the error
// constructors only run for invalid input.
//
//sealint:hotpath
func (o *Oracle) checkIDs(s, t int32) error {
	if s < 0 || int(s) >= o.npoi {
		//sealint:ignore invalid-id error path; valid ids allocate nothing
		return fmt.Errorf("core: POI id %d out of range [0,%d)", s, o.npoi)
	}
	if t < 0 || int(t) >= o.npoi {
		//sealint:ignore invalid-id error path; valid ids allocate nothing
		return fmt.Errorf("core: POI id %d out of range [0,%d)", t, o.npoi)
	}
	return nil
}

// pathRow returns POI p's A_s row of the paths slab (layerN u32 entries,
// flatNone32 where the path skips a layer).
//
//sealint:hotpath
func (o *Oracle) pathRow(p int32) []byte {
	row := int(p) * o.layerN * 4
	return o.paths[row : row+o.layerN*4]
}

// lookup probes the slot slab for node pair (a, b) and returns its stored
// distance. Callers guarantee a, b < nNodes, so the compact key is
// well-formed.
//
//sealint:hotpath
func (o *Oracle) lookup(a, b uint32) (float64, bool) {
	var key uint64
	if o.wide {
		key = uint64(a)<<32 | uint64(b)
	} else {
		key = uint64(a)<<o.shift | uint64(b)
	}
	bkt := perfecthash.CompactBucketOf(key, o.seed, o.nBuckets)
	d := binary.LittleEndian.Uint16(o.disp[bkt*2:])
	s := perfecthash.CompactSlotOf(key, o.seed, d, o.nSlots)
	if o.wide {
		rec := o.slots[s*flatSlotStrideWide:]
		if binary.LittleEndian.Uint64(rec) != key {
			return 0, false
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])), true
	}
	rec := o.slots[s*flatSlotStride:]
	if uint64(binary.LittleEndian.Uint32(rec)) != key {
		return 0, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(rec[4:])), true
}

// nodeParentLayer returns the layer of node n's parent (0 for the root),
// precomputed in the nodes slab (callers guarantee n < nNodes).
//
//sealint:hotpath
func (o *Oracle) nodeParentLayer(n uint32) int {
	return int(binary.LittleEndian.Uint16(o.nodes[int(n)*flatNodeStride+10:]))
}

// errFlatCorrupt reports a slab entry that escaped structural validation —
// a node id out of range, the lazy-validation counterpart of the load-time
// checks. Kept out of line so the fmt.Errorf argument boxing stays in this
// cold helper instead of inlining into the //sealint:hotpath probe
// functions, where the escape gate would (rightly) flag it.
//
//go:noinline
func (o *Oracle) errFlatCorrupt(what string, v uint32) error {
	return fmt.Errorf("core: flat container corrupt: %s %d out of range [0,%d)", what, v, o.nNodes)
}

// Query returns the ε-approximate geodesic distance between POIs s and t
// using the efficient O(h) method of §3.4: one same-layer scan plus the
// first-higher-layer and first-lower-layer passes justified by Lemma 3 /
// Observation 1.
//
// Query only reads the image (its per-call scratch lives on the stack), so
// any number of goroutines may query one Oracle concurrently. A successful
// query performs no heap allocations.
//
//sealint:hotpath
func (o *Oracle) Query(s, t int32) (float64, error) {
	if err := o.checkIDs(s, t); err != nil {
		return 0, err
	}
	if s == t {
		// A same-leaf self pair is not guaranteed to be in the
		// well-separated pair set, and scanning for one would burn the full
		// O(h) passes to state the obvious.
		return 0, nil
	}
	d, _, _, err := o.queryPair(s, t)
	return d, err
}

// queryPair runs the O(h) scan of §3.4 and returns the unique matched node
// pair (Theorem 1) along with its stored distance. It is the shared core of
// Query (which drops the nodes) and QueryPath (which stitches the highway
// path between their centers). Callers must have validated s and t and
// excluded s == t; a successful call performs no heap allocations.
//
//sealint:hotpath
func (o *Oracle) queryPair(s, t int32) (float64, uint32, uint32, error) {
	as := o.pathRow(s)
	at := o.pathRow(t)
	nn := uint32(o.nNodes)

	// Step 1: same-layer pairs. A shared ancestor (a == b) needs no probe:
	// a node is never well-separated from itself — only a leaf self pair
	// can be stored, and s != t have distinct leaves.
	for i := 0; i < o.layerN; i++ {
		a := binary.LittleEndian.Uint32(as[i*4:])
		b := binary.LittleEndian.Uint32(at[i*4:])
		if a == b || a == flatNone32 || b == flatNone32 {
			continue
		}
		if a >= nn {
			return 0, 0, 0, o.errFlatCorrupt("path node", a)
		}
		if b >= nn {
			return 0, 0, 0, o.errFlatCorrupt("path node", b)
		}
		if d, ok := o.lookup(a, b); ok {
			return d, a, b, nil
		}
	}
	// Step 2: first-higher-layer pairs (Layer(O) < Layer(O')): for each
	// node At[i], only layers from its parent's layer up to i-1 can hold a
	// match (Observation 1).
	for i := 1; i < o.layerN; i++ {
		b := binary.LittleEndian.Uint32(at[i*4:])
		if b == flatNone32 {
			continue
		}
		if b >= nn {
			return 0, 0, 0, o.errFlatCorrupt("path node", b)
		}
		j := o.nodeParentLayer(b)
		for k := j; k < i; k++ {
			a := binary.LittleEndian.Uint32(as[k*4:])
			if a == flatNone32 {
				continue
			}
			if a >= nn {
				return 0, 0, 0, o.errFlatCorrupt("path node", a)
			}
			if d, ok := o.lookup(a, b); ok {
				return d, a, b, nil
			}
		}
	}
	// Step 3: first-lower-layer pairs, symmetric to step 2.
	for i := 1; i < o.layerN; i++ {
		a := binary.LittleEndian.Uint32(as[i*4:])
		if a == flatNone32 {
			continue
		}
		if a >= nn {
			return 0, 0, 0, o.errFlatCorrupt("path node", a)
		}
		j := o.nodeParentLayer(a)
		for k := j; k < i; k++ {
			b := binary.LittleEndian.Uint32(at[k*4:])
			if b == flatNone32 {
				continue
			}
			if b >= nn {
				return 0, 0, 0, o.errFlatCorrupt("path node", b)
			}
			if d, ok := o.lookup(a, b); ok {
				return d, a, b, nil
			}
		}
	}
	//sealint:ignore corrupt-oracle error path, never taken on a well-formed image
	return 0, 0, 0, fmt.Errorf("core: no node pair contains POIs (%d,%d); oracle corrupt", s, t)
}

// QueryNaive answers the same query by scanning the full A_s × A_t product
// (the O(h²) naive method of §3.4). Kept as the SE-Naive baseline and as
// the reference Query is checked against.
//
//sealint:hotpath
func (o *Oracle) QueryNaive(s, t int32) (float64, error) {
	if err := o.checkIDs(s, t); err != nil {
		return 0, err
	}
	if s == t {
		return 0, nil
	}
	d, cnt, err := o.productScan(s, t, false)
	if err != nil {
		return 0, err
	}
	if cnt == 0 {
		//sealint:ignore corrupt-oracle error path, never taken on a well-formed image
		return 0, fmt.Errorf("core: no node pair contains POIs (%d,%d); oracle corrupt", s, t)
	}
	return d, nil
}

// productScan probes every pair of the A_s × A_t product. With all false
// it stops at the first stored pair and returns its distance (QueryNaive);
// with all true it counts every stored pair (CheckInvariants' Theorem-1
// check, which expects exactly one).
//
//sealint:hotpath
func (o *Oracle) productScan(s, t int32, all bool) (float64, int, error) {
	as := o.pathRow(s)
	at := o.pathRow(t)
	nn := uint32(o.nNodes)
	d, cnt := 0.0, 0
	for i := 0; i < o.layerN; i++ {
		a := binary.LittleEndian.Uint32(as[i*4:])
		if a == flatNone32 {
			continue
		}
		if a >= nn {
			return 0, 0, o.errFlatCorrupt("path node", a)
		}
		for j := 0; j < o.layerN; j++ {
			b := binary.LittleEndian.Uint32(at[j*4:])
			if b == flatNone32 {
				continue
			}
			if b >= nn {
				return 0, 0, o.errFlatCorrupt("path node", b)
			}
			if v, ok := o.lookup(a, b); ok {
				if !all {
					return v, 1, nil
				}
				d = v
				cnt++
			}
		}
	}
	return d, cnt, nil
}

// QueryBatch answers pairs[i] = (s, t) into dst[i] and returns dst. When
// cap(dst) >= len(pairs) the call performs no heap allocations (pass dst ==
// nil to let the call allocate). On the first invalid pair the filled prefix
// and the error are returned. This is the throughput surface for serving
// bulk workloads: one bounds-checked call, no per-query interface or slice
// churn.
//
//sealint:hotpath
func (o *Oracle) QueryBatch(pairs [][2]int32, dst []float64) ([]float64, error) {
	if cap(dst) < len(pairs) {
		//sealint:ignore documented contract: the caller chose the allocation by passing a short dst
		dst = make([]float64, len(pairs))
	}
	dst = dst[:len(pairs)]
	for i, p := range pairs {
		d, err := o.Query(p[0], p[1])
		if err != nil {
			//sealint:ignore invalid-pair error path; success stays allocation-free
			return dst[:i], fmt.Errorf("core: batch pair %d: %w", i, err)
		}
		dst[i] = d
	}
	return dst, nil
}
