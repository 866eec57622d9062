package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// Multi-seed fuzz: for a spread of terrains, POI layouts and ε values, the
// oracle must build, satisfy its structural invariants, and agree between
// the efficient and naive query paths on sampled pairs.
func TestOracleInvariantsAcrossSeeds(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		m, err := gen.Fractal(gen.FractalSpec{
			NX: 9 + int(seed)%3*2, NY: 9 + int(seed)%3*2,
			CellDX: 5 + float64(seed), Amp: 10 + 8*float64(seed), Seed: 300 + seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		pois, err := gen.UniformPOIs(m, 10+int(seed)*4, 400+seed)
		if err != nil {
			t.Fatal(err)
		}
		pois = gen.Dedup(pois, 1e-9)
		eng := geodesic.NewExact(m)
		eps := []float64{0.08, 0.2, 0.4}[seed%3]
		sel := Selection(seed % 2)
		o, err := Build(eng, pois, Options{Epsilon: eps, Selection: sel, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if o.BuildStats().ResolverFallbacks != 0 {
			t.Errorf("seed %d: %d fallbacks", seed, o.BuildStats().ResolverFallbacks)
		}
		step := len(pois)/7 + 1
		for s := 0; s < len(pois); s += step {
			for q := 0; q < len(pois); q += step {
				a, err1 := o.Query(int32(s), int32(q))
				b, err2 := o.QueryNaive(int32(s), int32(q))
				if err1 != nil || err2 != nil || a != b {
					t.Fatalf("seed %d (%d,%d): %v/%v vs %v/%v", seed, s, q, a, err1, b, err2)
				}
			}
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the index deserializer: every
// container kind — current, and the legacy decoded se layout committed
// under testdata/legacy — must be rejected or accepted without panicking
// or over-allocating — kind confusion, truncated sections, bad CRCs and
// oversized section headers are all errors — and any stream Load accepts
// must survive an encode/load round trip (the serialization is canonical:
// logical content in, deterministic bytes out).
func FuzzDecode(f *testing.F) {
	m, err := gen.Fractal(gen.FractalSpec{NX: 7, NY: 7, CellDX: 10, Amp: 12, Seed: 601})
	if err != nil {
		f.Fatal(err)
	}
	pois, err := gen.UniformPOIs(m, 8, 602)
	if err != nil {
		f.Fatal(err)
	}
	pois = gen.Dedup(pois, 1e-9)
	eng := geodesic.NewExact(m)
	o, err := Build(eng, pois, Options{Epsilon: 0.3, Seed: 603})
	if err != nil {
		f.Fatal(err)
	}
	var legacy [][]byte
	for _, name := range legacyFixtures {
		blob, err := os.ReadFile(filepath.Join("testdata", "legacy", name+".sedx"))
		if err != nil {
			f.Fatal(err)
		}
		legacy = append(legacy, blob)
	}
	var seCont bytes.Buffer
	if err := o.EncodeTo(&seCont); err != nil {
		f.Fatal(err)
	}
	so, err := BuildSiteOracle(eng, m, SiteOptions{Options: Options{Epsilon: 0.4, Seed: 604}})
	if err != nil {
		f.Fatal(err)
	}
	var a2aCont bytes.Buffer
	if err := so.EncodeTo(&a2aCont); err != nil {
		f.Fatal(err)
	}
	dyn, err := NewDynamicOracle(eng, m, pois, Options{Epsilon: 0.3, Seed: 605})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := dyn.Insert(m.FacePoint(0, 0.5, 0.3, 0.2)); err != nil {
		f.Fatal(err)
	}
	var dynCont bytes.Buffer
	if err := dyn.EncodeTo(&dynCont); err != nil {
		f.Fatal(err)
	}
	// Multi container: a 2-shard tiled build, so the fuzzer sees a valid
	// manifest (names, bboxes, member-count) plus two nested member bodies
	// to mutate — duplicate names, overlapping/empty/inverted bboxes,
	// member-count lies and truncation all start one bit flip away.
	sh, err := BuildShardedLOD(eng, m, pois, 2, LODOptions{Options: Options{Epsilon: 0.3, Seed: 606}})
	if err != nil {
		f.Fatal(err)
	}
	var multiCont bytes.Buffer
	if err := sh.EncodeTo(&multiCont); err != nil {
		f.Fatal(err)
	}
	// A flat body with slab *content* flipped: the byte-path loader skips
	// the whole-file CRC, so content damage must surface as query errors,
	// never faults, and the fuzzer should start one mutation away from
	// every slab.
	flatFlip := append([]byte(nil), seCont.Bytes()...)
	flatFlip[len(flatFlip)/2] ^= 0x10
	// Hierarchical multi: a 2-level LOD container whose coarse member indexes
	// the global POIs as its leading sites, plus targeted damage to its
	// hierarchy and portal sections — bad LOD links (self-parent), orphan
	// children (parent beyond the manifest), a lying portal count, a
	// portal-id mismatch and a coarse POI count that disagrees with the
	// member body all start zero mutations away. The byte-image loader
	// skips the outer CRC for multi containers, so these reach the hierarchy
	// decoder directly; it must error, never fault.
	lodSh, err := BuildShardedLOD(eng, m, pois, 2, LODOptions{
		Options: Options{Epsilon: 0.3, Seed: 607}, Levels: 2, PortalsPerEdge: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	if c := lodSh.hier.coarseOrd[0]; lodSh.hier.npois[c] != lodSh.hier.total {
		f.Fatalf("coarse member indexes %d POIs, want all %d", lodSh.hier.npois[c], lodSh.hier.total)
	}
	var lodCont bytes.Buffer
	if err := lodSh.EncodeTo(&lodCont); err != nil {
		f.Fatal(err)
	}
	hierMut := func(mut func(secs map[uint32][]byte)) []byte {
		img := append([]byte(nil), lodCont.Bytes()...)
		_, secs, err := sliceContainer(img) // payloads alias img
		if err != nil {
			f.Fatal(err)
		}
		mut(secs)
		return img
	}
	selfParent := hierMut(func(secs map[uint32][]byte) {
		binary.LittleEndian.PutUint32(secs[secHierarchy][8+2:], 0) // member 0 parents itself
	})
	orphanChild := hierMut(func(secs map[uint32][]byte) {
		binary.LittleEndian.PutUint32(secs[secHierarchy][8+2:], 99) // parent beyond the manifest
	})
	portalCountLie := hierMut(func(secs map[uint32][]byte) {
		binary.LittleEndian.PutUint64(secs[secPortals][0:], 1<<19) // more links than the payload holds
	})
	portalIDFlip := hierMut(func(secs map[uint32][]byte) {
		s := secs[secPortals]
		binary.LittleEndian.PutUint32(s[8+8:], binary.LittleEndian.Uint32(s[8+8:])+1) // first link's IDA off by one
	})
	coarseNoPOIs := hierMut(func(secs map[uint32][]byte) {
		last := len(lodSh.members) - 1 // the coarse member
		binary.LittleEndian.PutUint64(secs[secHierarchy][8+last*14+6:], 0)
	})
	for _, seed := range append(legacy, seCont.Bytes(), a2aCont.Bytes(), dynCont.Bytes(),
		multiCont.Bytes(), flatFlip,
		lodCont.Bytes(), selfParent, orphanChild, portalCountLie, portalIDFlip, coarseNoPOIs) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		// Kind-tag flip without CRC repair: must die at the footer check.
		flipped := append([]byte(nil), seed...)
		if len(flipped) > 6 {
			flipped[6] ^= 0x3
		}
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The zero-copy byte path skips whole-file CRCs (flat members
		// self-validate structurally), so it sees more of the input space
		// than Load; whatever it accepts must answer queries — including
		// invalid ids — with errors, never faults.
		if bidx, err := LoadBytes(append([]byte(nil), data...), nil); err == nil {
			n := int32(bidx.Stats().Points)
			for _, pair := range [][2]int32{{0, 0}, {0, n - 1}, {n - 1, 1}, {-1, 0}, {0, n}} {
				_, _ = bidx.Query(pair[0], pair[1])
			}
			if fo, ok := bidx.(*Oracle); ok && n >= 1 {
				// Walk every slab family cheaply: queryPair (paths, disp,
				// slots), centerSequence (leaf, nodes), Nearest (the lazy
				// point slab). Geodesic path extraction is parity-tested
				// elsewhere; here the point is that corrupt slab content
				// errors instead of faulting.
				if _, na, nb, err := fo.queryPair(0, n-1); err == nil {
					_, _ = fo.centerSequence(0, n-1, na, nb)
				}
				if n <= 64 {
					_ = fo.CheckInvariants()
				}
				_, _, _, _ = fo.Nearest(0, 0)
			}
		}
		idx, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		st := idx.Stats()
		var out bytes.Buffer
		if err := idx.EncodeTo(&out); err != nil {
			t.Fatalf("re-encoding a loaded %s index: %v", st.Kind, err)
		}
		idx2, err := Load(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-loading a re-encoded %s index: %v", st.Kind, err)
		}
		st2 := idx2.Stats()
		if st2.Kind != st.Kind || st2.Points != st.Points || st2.Pairs != st.Pairs ||
			st2.Sites != st.Sites || st2.Members != st.Members {
			t.Fatalf("round trip changed shape: %+v -> %+v", st, st2)
		}
	})
}

// Appendix D: when n > N, the POI-independent site oracle answers P2P
// queries for POI sets larger than the vertex count.
func TestSiteOracleHandlesMorePOIsThanVertices(t *testing.T) {
	m, err := gen.Fractal(gen.FractalSpec{NX: 7, NY: 7, CellDX: 10, Amp: 15, Seed: 501})
	if err != nil {
		t.Fatal(err)
	}
	eng := geodesic.NewExact(m)
	so, err := BuildSiteOracle(eng, m, SiteOptions{Options: Options{Epsilon: 0.25, Seed: 502}})
	if err != nil {
		t.Fatal(err)
	}
	// n = 3N POIs, far more than the 49 vertices.
	pois, err := gen.UniformPOIs(m, 3*m.NumVerts(), 503)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s := pois[i]
		q := pois[len(pois)-1-i]
		got, err := so.QueryPoints(s, q)
		if err != nil {
			t.Fatal(err)
		}
		want := eng.DistancesTo(s, []terrain.SurfacePoint{q}, geodesic.Stop{CoverTargets: true})[0]
		if want == 0 {
			continue
		}
		if re := math.Abs(got-want) / want; re > 0.25*(1+1e-9) {
			t.Errorf("n>N query %d: relerr %v", i, re)
		}
	}
}

// The oracle must behave on a pathological-but-legal input: perfectly
// collinear POIs along a flat strip (degenerate geometry stresses the
// window propagation's collinear paths).
func TestCollinearPOIsOnFlatStrip(t *testing.T) {
	m, err := terrain.NewGrid(9, 2, 1, 1, make([]float64, 18))
	if err != nil {
		t.Fatal(err)
	}
	var pois []terrain.SurfacePoint
	for v := 0; v < 9; v++ {
		pois = append(pois, m.VertexPoint(int32(v))) // the y=0 row
	}
	eng := geodesic.NewExact(m)
	o, err := Build(eng, pois, Options{Epsilon: 0.1, Seed: 504})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 9; s++ {
		for q := 0; q < 9; q++ {
			got, err := o.Query(int32(s), int32(q))
			if err != nil {
				t.Fatal(err)
			}
			want := math.Abs(float64(s - q))
			if math.Abs(got-want) > 0.1*want+1e-9 {
				t.Errorf("collinear (%d,%d): %v want %v", s, q, got, want)
			}
		}
	}
}
