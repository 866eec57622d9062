// Benchmarks for the flat oracle image: cold-start-to-first-query across a
// POI sweep (the image loads in O(1), independent of index size) and
// bytes-per-POI of the on-disk container. The custom-unit columns
// (cold_start_to_first_query_ns, bytes_per_poi) land in BENCH_perf.json's
// Metrics map as first-class trajectory series. The sub-benchmarks keep
// their layout=flat name element so the series continue the trajectory
// recorded while a second, decoded layout existed.
package seoracle

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"seoracle/internal/core"
	"seoracle/internal/exp"
	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
)

// coldWorld is one pre-encoded POI-sweep point, ready for per-iteration
// load-and-query timing.
type coldWorld struct {
	npoi int
	blob []byte
}

var (
	coldMu    sync.Mutex
	coldCache = map[int]*coldWorld{}
)

// coldWorldAt builds (once per multiplier) a 17×17 fractal terrain with
// 32·mult POIs and encodes the ε=0.25 oracle. The mesh is fixed so the
// sweep varies only n, which the image's cold start must not depend on.
func coldWorldAt(b *testing.B, mult int) *coldWorld {
	b.Helper()
	coldMu.Lock()
	defer coldMu.Unlock()
	if w, ok := coldCache[mult]; ok {
		return w
	}
	m, err := gen.Fractal(gen.FractalSpec{NX: 17, NY: 17, CellDX: 10, Amp: 25, Seed: 900})
	if err != nil {
		b.Fatal(err)
	}
	pois, err := gen.UniformPOIs(m, 32*mult, 901)
	if err != nil {
		b.Fatal(err)
	}
	pois = gen.Dedup(pois, 1e-9)
	o, err := core.Build(geodesic.NewExact(m), pois, core.Options{Epsilon: 0.25, Seed: 902})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.EncodeTo(&buf); err != nil {
		b.Fatal(err)
	}
	w := &coldWorld{npoi: len(pois), blob: buf.Bytes()}
	coldCache[mult] = w
	return w
}

// BenchmarkColdStartFirstQuery measures load-a-container-and-answer-one-
// query, the latency a serving process pays between mapping a file and
// its first useful answer. Each iteration runs core.LoadBytes on the
// pre-encoded image plus one Query. The loader validates a fixed-size
// header and slab directory, so ns/op must stay flat across the 1×/4×/16×
// POI sweep and under 1 ms.
func BenchmarkColdStartFirstQuery(b *testing.B) {
	for _, mult := range []int{1, 4, 16} {
		w := coldWorldAt(b, mult)
		b.Run(fmt.Sprintf("layout=flat/pois=%dx", mult), func(b *testing.B) {
			s, t := int32(0), int32(w.npoi-1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, err := core.LoadBytes(w.blob, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := idx.Query(s, t); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N),
				"cold_start_to_first_query_ns")
		})
	}
}

// BenchmarkSizePerPOI reports the on-disk footprint of the oracle container
// over the sf-small world BenchmarkFig8_SizeSE sizes, normalized per POI:
// compact 12-byte hash slots and deflated cold slabs (points, embedded
// mesh).
func BenchmarkSizePerPOI(b *testing.B) {
	w := world(b, "sf-small", exp.SFSmall)
	o := buildSE(b, w, 0.1, core.SelectRandom)
	var buf bytes.Buffer
	if err := o.EncodeTo(&buf); err != nil {
		b.Fatal(err)
	}
	npoi := float64(len(w.ds.POIs))
	b.Run("layout=flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(float64(buf.Len())/npoi, "bytes_per_poi")
		}
	})
}
