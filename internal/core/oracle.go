package core

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// Options configures SE oracle construction.
type Options struct {
	// Epsilon is the error parameter ε > 0; answers are within a factor
	// (1±ε) of the geodesic distance.
	Epsilon float64
	// Selection is the point-selection strategy for the partition tree.
	Selection Selection
	// Seed drives every random choice, making construction deterministic.
	Seed int64
	// NaivePairDistances switches the construction to the paper's naive
	// method (§3.5): one SSAD per considered node pair instead of the
	// enhanced-edge index. Used by the SE-Naive baseline.
	NaivePairDistances bool
	// Workers bounds the number of goroutines used by the parallel
	// construction phases (the enhanced-edge SSAD fan-out and node-pair
	// distance resolution). 0 means runtime.GOMAXPROCS(0); 1 forces a fully
	// sequential build. Every worker count produces a bit-identical oracle
	// — the Seed-driven determinism contract holds regardless of
	// parallelism. When Workers > 1 the Engine must be safe for concurrent
	// DistancesTo calls (geodesic.Exact and steiner.Engine both are).
	Workers int
}

// BuildStats reports what construction did; the evaluation harness records
// it next to the timings.
type BuildStats struct {
	TreeNodes         int           // original partition tree size (O(nh))
	CompressedNodes   int           // compressed tree size (O(n), Lemma 9)
	Height            int           // h
	EnhancedEdges     int           // enhanced-edge index entries
	Pairs             int           // node pair set size (O(nh/ε^2β), Thm 2)
	PairsConsidered   int           // pairs examined during generation
	SSADCalls         int           // geodesic SSAD invocations
	ResolverFallbacks int           // enhanced-edge misses (expected 0)
	TreeTime          time.Duration // phase timings
	EdgeTime          time.Duration
	PairTime          time.Duration
	HashTime          time.Duration // perfect-hashing the pair set and laying out the image
}

// seState is the SE oracle's construction-time form: the compressed
// partition tree with its node radii, and the well-separated node-pair set
// as packed keys aligned with their distances. Build produces it and checks
// it; legacy se bodies decode into it (legacy.go). Neither serves from it:
// both cut the flat image (flatBody) and answer queries off that.
type seState struct {
	eps  float64
	tree *ctree
	keys []uint64 // packPair(a, b) node-pair keys, aligned with dist
	dist []float64
	pts  []terrain.SurfacePoint // POI points, one per tree.leaf entry
}

// Oracle is the SE distance oracle (§3): the per-POI layer arrays A_s and a
// perfect-hashed well-separated node-pair set, laid out as one pointer-free
// byte image (flat.go). It answers ε-approximate POI-to-POI geodesic
// distance queries in O(h) time and occupies O(nh/ε^2β) space, independent
// of the terrain size N.
//
// The same type serves a fresh build, a streamed Load and a memory-mapped
// LoadBytes: Query reads the fixed-stride hot slabs in place, and the point
// table and mesh inflate lazily on the first Nearest/NearestK/QueryPath
// call. An Oracle is immutable and safe for concurrent use; the lazy
// inflates and QueryPath's hop cache synchronize internally.
type Oracle struct {
	body []byte // the secFlat section payload, retained verbatim
	keep any    // mapping owner, referenced so a finalizer-driven munmap outlives us

	eps      float64
	npoi     int
	layerN   int
	nNodes   int
	height   int
	root     int32
	r0       float64
	nPairs   int
	nSlots   int
	nBuckets int
	seed     uint64
	wide     bool
	shift    uint

	leaf, paths, nodes, disp, slots []byte
	ptsC, meshC                     []byte
	ptsRaw, meshRaw                 int

	// Lazy cold-slab state. heapExtra accumulates the decoded structures'
	// heap cost so MemoryBytes stays truthful without synchronizing on the
	// sync.Once internals.
	ptsOnce   sync.Once
	pts       []terrain.SurfacePoint
	ptsErr    error
	meshOnce  sync.Once
	mesh      *terrain.Mesh
	meshErr   error
	heapExtra atomic.Int64
	// adopted is a resident terrain path queries use instead of inflating
	// the mesh slab: the construction mesh of a built oracle, or the one
	// mesh an enclosing container (multi, a2a, dynamic) carries for all of
	// its oracles.
	adopted *terrain.Mesh

	// build is the construction record, nil for loaded oracles (kept
	// behind a pointer so a loaded oracle's struct stays small).
	build *BuildStats

	pathMu   sync.Mutex
	peng     geodesic.PathEngine
	pengErr  error
	segCache map[uint64]pathSeg
}

// Build constructs an SE oracle over the POIs of a terrain using eng as the
// SSAD primitive. When eng exposes its terrain (geodesic.Exact does), the
// image embeds it so QueryPath survives EncodeTo → Load, and the built
// oracle adopts it so in-process paths never re-inflate it.
func Build(eng geodesic.Engine, pois []terrain.SurfacePoint, opt Options) (*Oracle, error) {
	var mesh *terrain.Mesh
	if me, ok := eng.(interface{ Mesh() *terrain.Mesh }); ok {
		mesh = me.Mesh()
	}
	return buildOracle(eng, pois, opt, mesh, true)
}

// buildOracle runs the construction phases, checks the tree and pair set,
// and cuts the flat image. mesh is the terrain the oracle answers paths on;
// embed stores it as the image's mesh slab, which an oracle inside a
// container that carries one mesh for all of its oracles (a multi's shared
// mesh section, an a2a or dynamic container's mesh section) leaves out.
func buildOracle(eng geodesic.Engine, pois []terrain.SurfacePoint, opt Options, mesh *terrain.Mesh, embed bool) (*Oracle, error) {
	st, stats, err := buildState(eng, pois, opt)
	if err != nil {
		return nil, err
	}
	if err := st.check(); err != nil {
		return nil, fmt.Errorf("core: built oracle violates its invariants: %w", err)
	}
	t := time.Now()
	slab := mesh
	if !embed {
		slab = nil
	}
	o, err := st.image(slab)
	if err != nil {
		return nil, err
	}
	stats.HashTime = time.Since(t)
	o.build = &stats
	o.adopted = mesh
	// The build's point table is the image's, bit for bit; keep it
	// resident instead of inflating the slab again on first use.
	o.ptsOnce.Do(func() {
		o.pts = st.pts
		o.heapExtra.Add(int64(len(st.pts)) * pointRecordSize)
	})
	// Hop geodesics reuse the construction engine (and its pooled scratch)
	// when it can report paths.
	if pe, ok := eng.(geodesic.PathEngine); ok {
		o.peng = pe
	}
	return o, nil
}

// buildState runs the construction phases of §3: the partition tree and its
// compression, the enhanced-edge index (or the naive per-pair SSADs), and
// the well-separated node-pair set.
func buildState(eng geodesic.Engine, pois []terrain.SurfacePoint, opt Options) (*seState, BuildStats, error) {
	var stats BuildStats
	if opt.Epsilon <= 0 {
		return nil, stats, fmt.Errorf("core: epsilon must be positive, got %g", opt.Epsilon)
	}
	if len(pois) == 0 {
		return nil, stats, fmt.Errorf("core: no POIs")
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	var ctr buildCounters

	t0 := time.Now()
	counting := &countingEngine{Engine: eng, calls: &ctr.ssadCalls}
	t, err := buildPartitionTree(counting, pois, opt.Selection, opt.Seed)
	if err != nil {
		return nil, stats, err
	}
	ct := compress(t)
	stats.TreeNodes = len(t.nodes)
	stats.CompressedNodes = ct.numNodes()
	stats.Height = int(t.height)
	stats.TreeTime = time.Since(t0)

	t1 := time.Now()
	var res *pairResolver
	if opt.NaivePairDistances {
		res = newPairResolver(counting, t, ct, pois, map[uint64]float64{}, &ctr, workers)
	} else {
		edges := enhancedEdges(counting, t, pois, opt.Epsilon, workers)
		stats.EnhancedEdges = len(edges)
		res = newPairResolver(counting, t, ct, pois, edges, &ctr, workers)
	}
	stats.EdgeTime = time.Since(t1)

	t2 := time.Now()
	pairs, err := generatePairs(ct, res, opt.Epsilon, &ctr)
	if err != nil {
		return nil, stats, err
	}
	stats.Pairs = len(pairs)
	stats.SSADCalls = int(ctr.ssadCalls.Load())
	stats.PairsConsidered = int(ctr.pairsConsidered.Load())
	stats.ResolverFallbacks = int(ctr.resolverFallbacks.Load())
	if opt.NaivePairDistances {
		// Every pair resolution fell back to a direct SSAD by design; do
		// not report them as anomalies.
		stats.ResolverFallbacks = 0
	}
	stats.PairTime = time.Since(t2)

	st := &seState{
		eps:  opt.Epsilon,
		tree: ct,
		keys: make([]uint64, len(pairs)),
		dist: make([]float64, len(pairs)),
		pts:  append([]terrain.SurfacePoint(nil), pois...),
	}
	for i, p := range pairs {
		st.keys[i] = packPair(p.a, p.b)
		st.dist[i] = p.dist
	}
	return st, stats, nil
}

// check validates the properties of the construction state that the image
// drops the data to re-check: the compressed tree's shape and the
// well-separation of every stored pair (both need node radii). It performs
// no SSADs. The image keeps the Theorem-1 check (Oracle.CheckInvariants).
func (st *seState) check() error {
	c := st.tree
	for id, n := range c.nodes {
		if n.parent >= 0 {
			p := c.nodes[n.parent]
			if p.layer >= n.layer {
				return fmt.Errorf("node %d layer %d has parent at layer %d", id, n.layer, p.layer)
			}
		}
		for _, ch := range n.children {
			if c.nodes[ch].parent != int32(id) {
				return fmt.Errorf("child %d of %d has parent %d", ch, id, c.nodes[ch].parent)
			}
		}
		if n.layer == c.height && n.radius != 0 {
			return fmt.Errorf("leaf %d has non-zero radius", id)
		}
		if len(n.children) == 1 && int32(id) != c.root {
			return fmt.Errorf("non-root node %d has exactly one child (compression failed)", id)
		}
	}
	sep := 2/st.eps + 2
	for i, key := range st.keys {
		a := int32(key >> 32)
		b := int32(key & 0xffffffff)
		m := math.Max(c.enlargedRadius(a), c.enlargedRadius(b))
		if st.dist[i] < sep*m-1e-9*(1+st.dist[i]) {
			return fmt.Errorf("pair (%d,%d) not well-separated: d=%g, need %g", a, b, st.dist[i], sep*m)
		}
	}
	return nil
}

// image cuts the flat image from the construction state and opens it. mesh
// is the terrain to embed as the cold mesh slab, or nil.
func (st *seState) image(mesh *terrain.Mesh) (*Oracle, error) {
	body, err := flatBody(st, mesh)
	if err != nil {
		return nil, err
	}
	o, err := decodeFlatBody(body, nil)
	if err != nil {
		return nil, fmt.Errorf("core: flat body failed its own validation: %w", err)
	}
	return o, nil
}

// countingEngine counts SSAD invocations for BuildStats. The counter is
// atomic because the parallel construction phases invoke the engine from
// multiple goroutines at once.
type countingEngine struct {
	geodesic.Engine
	calls *atomic.Int64
}

func (c *countingEngine) DistancesTo(src terrain.SurfacePoint, targets []terrain.SurfacePoint, stop geodesic.Stop) []float64 {
	c.calls.Add(1)
	return c.Engine.DistancesTo(src, targets, stop)
}

// Epsilon returns the oracle's error parameter.
func (o *Oracle) Epsilon() float64 { return o.eps }

// NumPOIs returns the number of POIs the oracle indexes.
func (o *Oracle) NumPOIs() int { return o.npoi }

// Height returns the partition-tree height h (the query cost driver).
func (o *Oracle) Height() int { return o.height }

// NumPairs returns the size of the node pair set.
func (o *Oracle) NumPairs() int { return o.nPairs }

// BuildStats returns the construction statistics. (Zero for loaded
// oracles: construction happened in another process.)
func (o *Oracle) BuildStats() BuildStats {
	if o.build == nil {
		return BuildStats{}
	}
	return *o.build
}

// MemoryBytes reports the oracle's heap-resident size: the struct plus
// whatever the lazy cold-slab decodes have materialized. The image itself
// is counted by MappedBytes — the split /statsz reports; their sum is the
// "oracle size" measurement of the evaluation.
func (o *Oracle) MemoryBytes() int64 {
	return flatStructBytes + o.heapExtra.Load()
}

// SizeBytes reports the oracle size the paper's evaluation measures: the
// image without its embedded terrain — the hot slabs, the perfect hash and
// the compressed point table. It grows with the POIs, not with the terrain.
func (o *Oracle) SizeBytes() int64 { return int64(len(o.body) - len(o.meshC)) }

// MappedBytes reports how many bytes the oracle serves in place from its
// image — the memory-mapped file when loaded through one. Part of the
// MappedIndex interface.
func (o *Oracle) MappedBytes() int64 { return int64(len(o.body)) }

// Stats reports the shared observability surface; MappedBytes carries the
// heap-vs-mapped split.
func (o *Oracle) Stats() IndexStats {
	return IndexStats{
		Kind:        KindFlat,
		Epsilon:     o.eps,
		Points:      o.npoi,
		Height:      o.height,
		Pairs:       o.nPairs,
		MemoryBytes: o.MemoryBytes(),
		MappedBytes: o.MappedBytes(),
		Build:       o.BuildStats(),
	}
}

// EncodeTo writes the oracle as a flat container (kind "flat"): the image
// verbatim inside a fresh envelope, so Build → EncodeTo → Load → EncodeTo
// is byte-identical. Part of the DistanceIndex interface.
func (o *Oracle) EncodeTo(w io.Writer) error {
	return writeContainer(w, KindFlat, []section{bytesSection(secFlat, o.body)})
}

// Points returns the POI point table, inflating the point slab on first
// use. The slice aliases oracle-owned memory and must be treated as
// read-only.
func (o *Oracle) Points() ([]terrain.SurfacePoint, error) { return o.points() }

// Nearest returns the indexed POI planar-closest to (x, y). Part of the
// NearestFinder interface; triggers the lazy point-slab inflate.
func (o *Oracle) Nearest(x, y float64) (int32, terrain.SurfacePoint, float64, error) {
	pts, err := o.points()
	if err != nil {
		return -1, terrain.SurfacePoint{}, 0, err
	}
	return nearestScan(pts, nil, x, y)
}

// CheckInvariants validates the unique-node-pair-match property (Theorem 1)
// for a grid of POI pairs on the image. (The tree-shape and separation
// checks need node radii, which the image drops; Build runs them on its
// construction state.) Used by the test suite and by `sebuild -check`.
func (o *Oracle) CheckInvariants() error {
	step := o.npoi/17 + 1
	for s := 0; s < o.npoi; s += step {
		for t := 0; t < o.npoi; t += step {
			_, cnt, err := o.productScan(int32(s), int32(t), true)
			if err != nil {
				return err
			}
			if cnt != 1 {
				return fmt.Errorf("POIs (%d,%d) matched by %d node pairs, want exactly 1", s, t, cnt)
			}
		}
	}
	return nil
}
