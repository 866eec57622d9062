package baseline

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"seoracle/internal/core"
	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

type world struct {
	mesh *terrain.Mesh
	pois []terrain.SurfacePoint
	eng  *geodesic.Exact
}

func newWorld(t *testing.T, nx, npoi int, seed int64) *world {
	t.Helper()
	m, err := gen.Fractal(gen.FractalSpec{NX: nx, NY: nx, CellDX: 10, Amp: 20, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pois, err := gen.UniformPOIs(m, npoi, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return &world{mesh: m, pois: gen.Dedup(pois, 1e-9), eng: geodesic.NewExact(m)}
}

func (w *world) exact(s, t terrain.SurfacePoint) float64 {
	return w.eng.DistancesTo(s, []terrain.SurfacePoint{t}, geodesic.Stop{CoverTargets: true})[0]
}

func TestKAlgoBounds(t *testing.T) {
	w := newWorld(t, 9, 10, 41)
	eps := 0.25
	k, err := NewKAlgo(w.mesh, eps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		a := w.pois[rng.Intn(len(w.pois))]
		b := w.pois[rng.Intn(len(w.pois))]
		want := w.exact(a, b)
		d, lo, hi := k.Query(a, b)
		if d < want-1e-9*(1+want) {
			t.Errorf("K-Algo %v below exact %v", d, want)
		}
		if lo > want+1e-9*(1+want) {
			t.Errorf("K-Algo lower bound %v above exact %v", lo, want)
		}
		if hi < want-1e-9*(1+want) {
			t.Errorf("K-Algo upper bound %v below exact %v", hi, want)
		}
		if want > 0 && (d-want)/want > eps {
			t.Errorf("K-Algo error %v above eps", (d-want)/want)
		}
	}
	if k.MemoryBytes() <= 0 || k.NumNodes() <= w.mesh.NumVerts() {
		t.Error("K-Algo graph accounting wrong")
	}
}

func TestSPOracleError(t *testing.T) {
	w := newWorld(t, 8, 8, 43)
	eps := 0.25
	sp, err := NewSPOracle(w.eng, w.mesh, eps, 44)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(w.pois); i++ {
		for j := i + 1; j < len(w.pois); j++ {
			want := w.exact(w.pois[i], w.pois[j])
			got, err := sp.Query(w.pois[i], w.pois[j])
			if err != nil {
				t.Fatal(err)
			}
			if want == 0 {
				continue
			}
			if re := math.Abs(got-want) / want; re > eps*(1+1e-9) {
				t.Errorf("SP-Oracle (%d,%d): got %v want %v relerr %v", i, j, got, want, re)
			}
		}
	}
	if sp.NumSites() <= w.mesh.NumVerts() {
		t.Error("SP-Oracle has no Steiner sites")
	}
}

// SP-Oracle's size must scale with the terrain, SE's with the POIs — the
// paper's central size comparison.
func TestSPOracleSizeScalesWithN(t *testing.T) {
	small := newWorld(t, 7, 6, 45)
	big := newWorld(t, 11, 6, 45)
	spS, err := NewSPOracle(small.eng, small.mesh, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	spB, err := NewSPOracle(big.eng, big.mesh, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if spB.MemoryBytes() <= spS.MemoryBytes() {
		t.Error("SP-Oracle size did not grow with N")
	}
	seS, err := core.Build(small.eng, small.pois, core.Options{Epsilon: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seB, err := core.Build(big.eng, big.pois, core.Options{Epsilon: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// SE over the same 6 POIs stays comparable across terrains while the
	// SP-Oracle grows by the vertex factor.
	seGrowth := float64(seB.SizeBytes()) / float64(seS.SizeBytes())
	spGrowth := float64(spB.MemoryBytes()) / float64(spS.MemoryBytes())
	if seGrowth > spGrowth {
		t.Errorf("SE grew %vx but SP-Oracle only %vx", seGrowth, spGrowth)
	}
}

func TestSENaive(t *testing.T) {
	w := newWorld(t, 8, 10, 46)
	eps := 0.25
	o, err := NewSENaive(w.eng, w.pois, eps, 47)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.pois {
		for j := range w.pois {
			got, err := o.QueryNaive(int32(i), int32(j))
			if err != nil {
				t.Fatal(err)
			}
			want := w.exact(w.pois[i], w.pois[j])
			if want == 0 {
				if got > 1e-9 {
					t.Errorf("(%d,%d) self/co-located distance %v", i, j, got)
				}
				continue
			}
			if re := math.Abs(got-want) / want; re > eps*(1+1e-9) {
				t.Errorf("SE-Naive (%d,%d) relerr %v", i, j, re)
			}
		}
	}
}

func TestFullMaterialization(t *testing.T) {
	w := newWorld(t, 8, 12, 48)
	f, err := NewFullMaterialization(w.eng, w.pois)
	if err != nil {
		t.Fatal(err)
	}
	// Exact by construction.
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			got, err := f.Query(int32(i), int32(j))
			if err != nil {
				t.Fatal(err)
			}
			want := w.exact(w.pois[i], w.pois[j])
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Errorf("(%d,%d): %v vs %v", i, j, got, want)
			}
		}
	}
	if _, err := f.Query(-1, 0); err == nil {
		t.Error("bad id accepted")
	}
	wantBytes := int64(len(w.pois)*len(w.pois)) * 8
	if f.MemoryBytes() != wantBytes {
		t.Errorf("MemoryBytes = %d, want %d", f.MemoryBytes(), wantBytes)
	}

	// The strawman serves through the shared DistanceIndex surface like
	// every real engine — but it has no container serialization, and says
	// so with the sentinel error rather than writing garbage.
	var idx core.DistanceIndex = f
	dst, err := idx.QueryBatch([][2]int32{{0, 1}, {2, 3}}, nil)
	if err != nil || len(dst) != 2 {
		t.Fatalf("QueryBatch: %v (%d results)", err, len(dst))
	}
	if got, _ := f.Query(0, 1); dst[0] != got {
		t.Errorf("QueryBatch[0] = %g, Query = %g", dst[0], got)
	}
	if st := idx.Stats(); st.Points != len(w.pois) || st.MemoryBytes != wantBytes {
		t.Errorf("Stats = %+v", st)
	}
	if err := idx.EncodeTo(io.Discard); !errors.Is(err, core.ErrNotEncodable) {
		t.Errorf("EncodeTo = %v, want ErrNotEncodable", err)
	}
}

// The motivating comparison of §1.3: with very few POIs, SE is far smaller
// than the POI-independent SP-Oracle.
func TestSEBeatsSPOracleOnSparsePOIs(t *testing.T) {
	w := newWorld(t, 9, 2, 49)
	se, err := core.Build(w.eng, w.pois, core.Options{Epsilon: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSPOracle(w.eng, w.mesh, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if se.SizeBytes()*10 > sp.MemoryBytes() {
		t.Errorf("SE (%d B) not at least 10x smaller than SP-Oracle (%d B) with 2 POIs",
			se.SizeBytes(), sp.MemoryBytes())
	}
}
