// Quickstart: generate a terrain, build an SE oracle over a POI set, and
// compare oracle answers with exact geodesic distances.
package main

import (
	"fmt"
	"log"
	"math"

	"seoracle"
)

func main() {
	// A 33x33 fractal terrain: ~1k vertices, 10 m resolution, 120 m relief.
	mesh, err := seoracle.GenerateFractalTerrain(seoracle.FractalSpec{
		NX: 33, NY: 33, CellDX: 10, Amp: 120, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := mesh.ComputeStats()
	fmt.Printf("terrain: %d vertices, %d faces, %.0fm x %.0fm\n",
		st.NumVerts, st.NumFaces, st.BBoxMax.X-st.BBoxMin.X, st.BBoxMax.Y-st.BBoxMin.Y)

	// 50 points of interest scattered on the surface.
	pois, err := seoracle.SampleUniformPOIs(mesh, 50, 11)
	if err != nil {
		log.Fatal(err)
	}

	// The SE oracle with a 10% error budget.
	oracle, err := seoracle.Build(mesh, pois, seoracle.Options{Epsilon: 0.1, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	// The oracle's weight sits in its image (MappedBytes), not the Go heap
	// (MemoryBytes); the sum is its resident size.
	ost := oracle.Stats()
	fmt.Printf("oracle: h=%d, %d node pairs, %.1f KB\n",
		oracle.Height(), oracle.NumPairs(), float64(ost.MemoryBytes+ost.MappedBytes)/1024)

	// Answer a few queries and check them against the exact engine.
	exact := seoracle.ExactDistances(mesh, pois[0], pois)
	worst := 0.0
	for t := 1; t < 6; t++ {
		approx, err := oracle.Query(0, int32(t))
		if err != nil {
			log.Fatal(err)
		}
		re := math.Abs(approx-exact[t]) / exact[t]
		worst = math.Max(worst, re)
		fmt.Printf("d(POI 0, POI %d): oracle %8.2f m, exact %8.2f m, error %.3f%%\n",
			t, approx, exact[t], 100*re)
	}
	fmt.Printf("worst observed error %.3f%% (budget was 10%%)\n", 100*worst)
}
