// Benchmarks for the LOD shard hierarchy: the cost of faulting a lazily
// loaded member in from the container image (the -mem-budget serving path's
// cache miss) and the hot cost of a portal-stitched and a coarse-routed
// cross-tile query against a same-tile baseline. The cold_fault_ns custom-unit column
// lands in BENCH_perf.json's Metrics map as a trajectory series.
package seoracle

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"seoracle/internal/core"
	"seoracle/internal/exp"
)

// lodBench caches one built hierarchical container: the resident index, its
// encoded bytes, and a near-seam cross-tile global id pair.
type lodBench struct {
	sh      *core.ShardedIndex
	encoded []byte
	crossS  int32 // near-seam cross-member pair: portal-stitched
	crossT  int32
	coarseS int32 // shortest-span diagonal-tile pair: coarse-routed
	coarseT int32
	sameS   int32 // same-member pair: the intra-tile baseline
	sameT   int32
}

var (
	lodBenchMu  sync.Mutex
	lodBenchVal *lodBench
)

// lodBenchWorld builds (once) a 2-level, 4-tile hierarchical index over the
// sf-small benchmark terrain and picks the measurement pairs: the
// cross-member pair with the smallest planar separation (guaranteed to
// route through boundary portals, not the coarse level), the pair of
// diagonal tiles with the smallest planar separation (diagonal tiles share
// no portals, so it routes to the coarse level; before the coarse member
// indexed the POIs, this was the pair that ran a short-range exact SSAD)
// and a same-member pair for the baseline.
func lodBenchWorld(b *testing.B) *lodBench {
	b.Helper()
	lodBenchMu.Lock()
	defer lodBenchMu.Unlock()
	if lodBenchVal != nil {
		return lodBenchVal
	}
	w := world(b, "sf-small", exp.SFSmall)
	sh, err := core.BuildShardedLOD(w.eng, w.ds.Mesh, w.ds.POIs, 4, core.LODOptions{
		Options:        core.Options{Epsilon: 0.25, Seed: 1},
		Levels:         2,
		PortalsPerEdge: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sh.EncodeTo(&buf); err != nil {
		b.Fatal(err)
	}
	lb := &lodBench{sh: sh, encoded: buf.Bytes(), sameT: 1}

	// Locate every global id's member and surface point.
	n := sh.NumGlobalIDs()
	owner := make([]string, n)
	px := make([]float64, n)
	py := make([]float64, n)
	pts := map[string][]int32{}
	for g := 0; g < n; g++ {
		name, local, ok := sh.MemberOf(int32(g))
		if !ok {
			b.Fatalf("global id %d unresolvable", g)
		}
		owner[g] = name
		for _, m := range sh.Members() {
			if m.Name == name {
				mpts, err := m.Index.(*core.Oracle).Points()
				if err != nil {
					b.Fatal(err)
				}
				px[g], py[g] = mpts[local].P.X, mpts[local].P.Y
			}
		}
		pts[name] = append(pts[name], int32(g))
	}
	tileXY := func(name string) (x, y int) {
		if _, err := fmt.Sscanf(name, "tile-%d-%d", &x, &y); err != nil {
			b.Fatalf("member %q is not a fine tile: %v", name, err)
		}
		return x, y
	}
	best, bestDiag := math.Inf(1), math.Inf(1)
	for s := 0; s < n; s++ {
		for t := s + 1; t < n; t++ {
			if owner[s] == owner[t] {
				continue
			}
			d := math.Hypot(px[s]-px[t], py[s]-py[t])
			if d < best {
				best, lb.crossS, lb.crossT = d, int32(s), int32(t)
			}
			sx, sy := tileXY(owner[s])
			tx, ty := tileXY(owner[t])
			if sx != tx && sy != ty && d < bestDiag {
				bestDiag, lb.coarseS, lb.coarseT = d, int32(s), int32(t)
			}
		}
	}
	if math.IsInf(best, 1) || math.IsInf(bestDiag, 1) {
		b.Fatal("no cross-member or no diagonal-tile pair in the benchmark world")
	}
	for _, ids := range pts {
		if len(ids) >= 2 {
			lb.sameS, lb.sameT = ids[0], ids[1]
			break
		}
	}
	// Confirm the near-seam pair actually routes through portals.
	before, _ := sh.TileStats()
	if _, err := sh.Query(lb.crossS, lb.crossT); err != nil {
		b.Fatal(err)
	}
	after, _ := sh.TileStats()
	if after.PortalQueries <= before.PortalQueries {
		b.Fatalf("near-seam pair (%d,%d) did not take the portal route", lb.crossS, lb.crossT)
	}
	lodBenchVal = lb
	return lb
}

// BenchmarkColdFault measures the -mem-budget serving path's cache miss:
// each iteration lazily loads the hierarchical container (members stay byte
// ranges) and runs one cross-tile query, which faults both endpoint members
// in from the image. The per-iteration time is the cold start-to-first-
// answer of a tile nothing had touched yet, reported as cold_fault_ns.
func BenchmarkColdFault(b *testing.B) {
	lb := lodBenchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, _, err := core.LoadBytesOpts(lb.encoded, nil, core.LoadOptions{MemBudget: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := idx.Query(lb.crossS, lb.crossT); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "cold_fault_ns")
}

// BenchmarkPortalQuery measures the hot portal-stitching path: a resident
// hierarchical index answering the near-seam cross-tile pair, which takes
// min over shared-edge portals of two member-local oracle queries.
func BenchmarkPortalQuery(b *testing.B) {
	lb := lodBenchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lb.sh.Query(lb.crossS, lb.crossT); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoarseQuery measures the hot coarse route: a resident
// hierarchical index answering the shortest-span diagonal-tile pair, which
// shares no portals and goes to the coarse member. The benchmark first
// asserts that the pair does take the coarse route.
func BenchmarkCoarseQuery(b *testing.B) {
	lb := lodBenchWorld(b)
	before, _ := lb.sh.TileStats()
	if _, err := lb.sh.Query(lb.coarseS, lb.coarseT); err != nil {
		b.Fatal(err)
	}
	if after, _ := lb.sh.TileStats(); after.CoarseQueries <= before.CoarseQueries {
		b.Fatalf("diagonal-tile pair (%d,%d) did not take the coarse route", lb.coarseS, lb.coarseT)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lb.sh.Query(lb.coarseS, lb.coarseT); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSameTileQuery is BenchmarkPortalQuery's baseline: the same index
// answering a pair owned by one member, one partition-tree walk with no
// stitching. The gap between the two is the portal overhead.
func BenchmarkSameTileQuery(b *testing.B) {
	lb := lodBenchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lb.sh.Query(lb.sameS, lb.sameT); err != nil {
			b.Fatal(err)
		}
	}
}
