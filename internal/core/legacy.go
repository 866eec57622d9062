package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"seoracle/internal/terrain"
)

// legacy.go — read-only support for the decoded se layout that containers
// written before the flat image carried: the se container kind, and the
// secOracle body inside a2a and dynamic containers. Such a body is the
// oracle's logical content — eps, sizes, tree nodes with radii, leaf map,
// node-pair keys and distances — and loading decodes it into a construction
// state and cuts the flat image from it in memory, so every load yields the
// same *Oracle a fresh Build does. Nothing writes this layout any more.

// decodeChunk bounds how many elements a decoder materializes per read, so
// the memory committed before a truncated stream hits EOF stays
// proportional to the data actually present.
const decodeChunk = 1 << 16

// capHint clamps a header-declared length to a safe initial capacity.
func capHint(n int64) int {
	if n > decodeChunk {
		return decodeChunk
	}
	return int(n)
}

// decodeSlice reads n little-endian values in bounded chunks.
func decodeSlice[T any](r io.Reader, n int64) ([]T, error) {
	out := make([]T, 0, capHint(n))
	for int64(len(out)) < n {
		c := n - int64(len(out))
		if c > decodeChunk {
			c = decodeChunk
		}
		buf := make([]T, c)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

// decodeBody reads a legacy se oracle body into a construction state,
// validating every structural property the image cut (flatBody) trusts:
// in-range node references, layers that strictly decrease towards the root
// (so every leaf-to-root walk terminates), and finite non-negative
// distances. Duplicate pair keys surface when the image hashes them.
func decodeBody(br io.Reader) (*seState, error) {
	get := func(vs ...interface{}) error {
		for _, v := range vs {
			if err := binary.Read(br, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	var eps, r0 float64
	var npoi, height, root, nNodes, nPairs int64
	if err := get(&eps, &npoi, &height, &root, &r0, &nNodes, &nPairs); err != nil {
		return nil, fmt.Errorf("core: decoding header: %w", err)
	}
	if npoi <= 0 || nNodes <= 0 || nPairs < 0 || npoi > 1<<40 || nNodes > 1<<40 || nPairs > 1<<40 {
		return nil, fmt.Errorf("core: implausible sizes npoi=%d nodes=%d pairs=%d", npoi, nNodes, nPairs)
	}
	// Bound the height before anything derives layerN from it: Build caps
	// trees at maxLayers, so a larger header value is corruption — and the
	// O(npoi·height) path slab would otherwise turn it into a giant
	// allocation (or an int-overflow panic) right here in the decoder.
	if height < 0 || height >= maxLayers {
		return nil, fmt.Errorf("core: implausible tree height %d (max %d)", height, maxLayers-1)
	}
	if root < 0 || root >= nNodes {
		return nil, fmt.Errorf("core: root %d out of range", root)
	}
	ct := &ctree{height: int32(height), root: int32(root), r0: r0}
	// Grow incrementally with a bounded initial capacity: a corrupt header
	// claiming a huge count then fails at EOF instead of attempting one
	// giant allocation.
	ct.nodes = make([]cnode, 0, capHint(nNodes))
	for i := int64(0); i < nNodes; i++ {
		var n cnode
		if err := get(&n.center, &n.layer, &n.parent, &n.radius); err != nil {
			return nil, fmt.Errorf("core: decoding node %d: %w", i, err)
		}
		if n.parent >= int32(nNodes) || n.center < 0 || n.center >= int32(npoi) {
			return nil, fmt.Errorf("core: node %d references out of range", i)
		}
		if n.layer < 0 || n.layer > int32(height) {
			return nil, fmt.Errorf("core: node %d layer %d outside [0,%d]", i, n.layer, height)
		}
		ct.nodes = append(ct.nodes, n)
	}
	for i := range ct.nodes {
		if p := ct.nodes[i].parent; p >= 0 {
			// Layers must strictly decrease towards the root; this also rules
			// out parent cycles, which the image cut's leaf-to-root walks
			// would otherwise never escape.
			if ct.nodes[p].layer >= ct.nodes[i].layer {
				return nil, fmt.Errorf("core: node %d (layer %d) has parent %d at layer >= it", i, ct.nodes[i].layer, p)
			}
			ct.nodes[p].children = append(ct.nodes[p].children, int32(i))
		}
	}
	leaf, err := decodeSlice[int32](br, npoi)
	if err != nil {
		return nil, fmt.Errorf("core: decoding leaf map: %w", err)
	}
	ct.leaf = leaf
	for poi, l := range ct.leaf {
		if l < 0 || int64(l) >= nNodes {
			return nil, fmt.Errorf("core: leaf of POI %d out of range", poi)
		}
	}
	keys, err := decodeSlice[uint64](br, nPairs)
	if err != nil {
		return nil, fmt.Errorf("core: decoding pairs: %w", err)
	}
	dist, err := decodeSlice[float64](br, nPairs)
	if err != nil {
		return nil, fmt.Errorf("core: decoding pairs: %w", err)
	}
	for i, d := range dist {
		if math.IsNaN(d) || d < 0 {
			return nil, fmt.Errorf("core: pair %d has invalid distance %g", i, d)
		}
	}
	return &seState{eps: eps, tree: ct, keys: keys, dist: dist}, nil
}

// decodeLegacyBody decodes the secOracle section as a construction state,
// requiring the body to fill the section exactly.
func decodeLegacyBody(secs map[uint32][]byte) (*seState, error) {
	if err := requireSections(secs, secOracle); err != nil {
		return nil, err
	}
	br := bytes.NewReader(secs[secOracle])
	st, err := decodeBody(br)
	if err != nil {
		return nil, err
	}
	if err := expectDrained(br, "oracle section"); err != nil {
		return nil, err
	}
	return st, nil
}

// decodeSEContainer opens a legacy se container: the oracle body, its POI
// point table, and — when present — the terrain mesh, which the cut image
// embeds (so a re-encode keeps QueryPath) and the oracle adopts.
func decodeSEContainer(secs map[uint32][]byte) (DistanceIndex, error) {
	st, err := decodeLegacyBody(secs)
	if err != nil {
		return nil, err
	}
	payload, ok := secs[secPoints]
	if !ok {
		return nil, fmt.Errorf("se container carries no point table; rebuild the index")
	}
	if st.pts, err = decodePoints(payload); err != nil {
		return nil, fmt.Errorf("point table: %w", err)
	}
	if len(st.pts) != len(st.tree.leaf) {
		return nil, fmt.Errorf("point table holds %d points for %d POIs", len(st.pts), len(st.tree.leaf))
	}
	var mesh *terrain.Mesh
	if payload, ok := secs[secMesh]; ok {
		if mesh, err = decodeMesh(payload); err != nil {
			return nil, fmt.Errorf("mesh section: %w", err)
		}
		for i, p := range st.pts {
			if err := checkMeshPoint(p, mesh); err != nil {
				return nil, fmt.Errorf("POI %d: %w", i, err)
			}
		}
	}
	o, err := st.image(mesh)
	if err != nil {
		return nil, err
	}
	o.adopted = mesh
	return o, nil
}
