package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seoracle/internal/core"
)

// workloads_test.go — httptest coverage for the PR 6 endpoints: /v1/matrix,
// /v1/nearest?k=N and /v1/isochrone, including routing on multi containers,
// cache hits, per-cell error slots and the counted size caps.

type matrixBody struct {
	Distances []float64 `json:"distances"`
	Rows      int       `json:"rows"`
	Cols      int       `json:"cols"`
	Errors    []string  `json:"errors"`
	Kind      string    `json:"kind"`
	Index     string    `json:"index"`
}

type nearestKBody struct {
	Neighbors []struct {
		ID       int32   `json:"id"`
		X        float64 `json:"x"`
		Y        float64 `json:"y"`
		Distance float64 `json:"distance"`
		Index    string  `json:"index"`
	} `json:"neighbors"`
	Count int    `json:"count"`
	K     int    `json:"k"`
	Kind  string `json:"kind"`
	Index string `json:"index"`
}

type isochroneBody struct {
	Type     string `json:"type"`
	Features []struct {
		Type     string `json:"type"`
		Geometry struct {
			Type string `json:"type"`
		} `json:"geometry"`
		Properties map[string]interface{} `json:"properties"`
	} `json:"features"`
	Properties map[string]interface{} `json:"properties"`
}

// TestMatrixByIDs: matrix cells equal pairwise Query exactly, row-major.
func TestMatrixByIDs(t *testing.T) {
	o := seOracle(t)
	ts := httptest.NewServer(New(o).Handler())
	defer ts.Close()

	sources := []int32{0, 2, 5}
	targets := []int32{1, 0, 3, 4}
	var mr matrixBody
	if code := post(t, ts, "/v1/matrix",
		map[string]interface{}{"sources": sources, "targets": targets}, &mr); code != 200 {
		t.Fatalf("matrix = %d", code)
	}
	if mr.Rows != 3 || mr.Cols != 4 || len(mr.Distances) != 12 || mr.Kind != "flat" || len(mr.Errors) != 0 {
		t.Fatalf("matrix shape %+v", mr)
	}
	for i, s := range sources {
		for j, tt := range targets {
			want, err := o.Query(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			if got := mr.Distances[i*4+j]; got != want {
				t.Errorf("cell (%d,%d) = %g, Query says %g", i, j, got, want)
			}
		}
	}
	// Method and shape validation.
	if code := get(t, ts, "/v1/matrix", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET matrix = %d, want 405", code)
	}
	if code := post(t, ts, "/v1/matrix", map[string]interface{}{"sources": sources}, nil); code != 400 {
		t.Errorf("sources-only matrix = %d, want 400", code)
	}
	if code := post(t, ts, "/v1/matrix", map[string]interface{}{
		"sources": sources, "targets": targets, "source_coords": [][2]float64{{1, 1}}, "target_coords": [][2]float64{{2, 2}},
	}, nil); code != 400 {
		t.Errorf("mixed-mode matrix = %d, want 400", code)
	}
}

// TestMatrixPerCellErrors: one bad id fails its cells with error slots, the
// valid cells still carry their distances.
func TestMatrixPerCellErrors(t *testing.T) {
	o := seOracle(t)
	ts := httptest.NewServer(New(o).Handler())
	defer ts.Close()

	var mr matrixBody
	if code := post(t, ts, "/v1/matrix",
		map[string]interface{}{"sources": []int32{0, 9999}, "targets": []int32{1, 2}}, &mr); code != 200 {
		t.Fatalf("matrix with bad id = %d", code)
	}
	if len(mr.Errors) != 4 {
		t.Fatalf("want 4 error slots, got %v", mr.Errors)
	}
	for j := 0; j < 2; j++ {
		if mr.Errors[j] != "" {
			t.Errorf("valid row cell %d carries error %q", j, mr.Errors[j])
		}
		if mr.Errors[2+j] == "" {
			t.Errorf("bad row cell %d carries no error", j)
		}
		want, err := o.Query(0, int32(j+1))
		if err != nil {
			t.Fatal(err)
		}
		if mr.Distances[j] != want {
			t.Errorf("valid cell %d = %g, want %g", j, mr.Distances[j], want)
		}
	}
}

// TestMatrixByCoordsOnA2A: coordinate-addressed matrices on a point-capable
// index match QueryXY per cell; off-terrain points fail their cells only.
func TestMatrixByCoordsOnA2A(t *testing.T) {
	m, _, eng := testWorld(t)
	so, err := core.BuildSiteOracle(eng, m, core.SiteOptions{Options: core.Options{Epsilon: 0.3, Seed: 74}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(so).Handler())
	defer ts.Close()

	a := m.FacePoint(0, 0.4, 0.3, 0.3)
	b := m.FacePoint(int32(m.NumFaces()-1), 0.3, 0.4, 0.3)
	var mr matrixBody
	if code := post(t, ts, "/v1/matrix", map[string]interface{}{
		"source_coords": [][2]float64{{a.P.X, a.P.Y}},
		"target_coords": [][2]float64{{b.P.X, b.P.Y}, {-1e9, -1e9}},
	}, &mr); code != 200 {
		t.Fatalf("coord matrix = %d", code)
	}
	want, err := so.QueryXY(a.P.X, a.P.Y, b.P.X, b.P.Y)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Distances[0] != want {
		t.Errorf("cell (0,0) = %g, QueryXY says %g", mr.Distances[0], want)
	}
	if len(mr.Errors) != 2 || mr.Errors[0] != "" || !strings.Contains(mr.Errors[1], "outside") {
		t.Errorf("error slots %v, want the off-terrain target flagged", mr.Errors)
	}
	// An id-only index refuses coordinate matrices.
	ts2 := httptest.NewServer(New(seOracle(t)).Handler())
	defer ts2.Close()
	if code := post(t, ts2, "/v1/matrix", map[string]interface{}{
		"source_coords": [][2]float64{{1, 1}}, "target_coords": [][2]float64{{2, 2}},
	}, nil); code != 400 {
		t.Errorf("coord matrix on se = %d, want 400", code)
	}
}

// TestMatrixOversizeCounted: a matrix over MaxMatrixCells is a 413 counted
// in /statsz oversize_rejections (as is an oversized batch).
func TestMatrixOversizeCounted(t *testing.T) {
	ts := httptest.NewServer(New(seOracle(t)).Handler())
	defer ts.Close()

	big := make([]int32, 1100)
	if code := post(t, ts, "/v1/matrix",
		map[string]interface{}{"sources": big, "targets": big}, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized matrix = %d, want 413", code)
	}
	if code := get(t, ts, "/v1/nearest?x=0&y=0&k=99999", nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized k = %d, want 413", code)
	}
	var st struct {
		Oversize int64 `json:"oversize_rejections"`
	}
	if code := get(t, ts, "/statsz", &st); code != 200 {
		t.Fatalf("statsz = %d", code)
	}
	if st.Oversize != 2 {
		t.Fatalf("oversize_rejections = %d, want 2", st.Oversize)
	}
}

// TestMatrixOnMultiRouting: a named member answers its local ids; an
// unnamed matrix addresses the global id space, where a same-member cell
// answers the member's distance and a cross-member cell of a single-level
// container fails alone, its error naming both members.
func TestMatrixOnMultiRouting(t *testing.T) {
	sh, _ := shardedWorld(t)
	ts := httptest.NewServer(New(sh).Handler())
	defer ts.Close()

	name := sh.Members()[0].Name
	want, err := sh.Members()[0].Index.Query(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mr matrixBody
	if code := post(t, ts, "/v1/matrix", map[string]interface{}{
		"index": name, "sources": []int32{0}, "targets": []int32{1},
	}, &mr); code != 200 {
		t.Fatalf("named matrix = %d", code)
	}
	if mr.Distances[0] != want || mr.Index != name {
		t.Fatalf("named matrix %+v, want %g from %s", mr, want, name)
	}
	last := int32(sh.NumGlobalIDs() - 1)
	var cm matrixBody
	if code := post(t, ts, "/v1/matrix",
		map[string]interface{}{"sources": []int32{0}, "targets": []int32{1, last}}, &cm); code != 200 ||
		cm.Distances[0] != want || len(cm.Errors) != 2 || cm.Errors[0] != "" ||
		!strings.Contains(cm.Errors[1], name) || !strings.Contains(cm.Errors[1], sh.Members()[1].Name) {
		t.Fatalf("unnamed cross-member matrix = %d %+v, want cell 1 failing with both member names", code, cm)
	}
	if code := post(t, ts, "/v1/matrix", map[string]interface{}{
		"index": "nope", "sources": []int32{0}, "targets": []int32{1},
	}, nil); code != 404 {
		t.Errorf("unknown member matrix = %d, want 404", code)
	}
}

// TestNearestKMatchesCore: /v1/nearest?k=N returns the core NearestK answer
// in order, and k=1 agrees with the legacy single-answer form.
func TestNearestKMatchesCore(t *testing.T) {
	o := seOracle(t)
	ts := httptest.NewServer(New(o).Handler())
	defer ts.Close()

	want, err := o.NearestK(42, 31, 3)
	if err != nil {
		t.Fatal(err)
	}
	var nk nearestKBody
	if code := get(t, ts, "/v1/nearest?x=42&y=31&k=3", &nk); code != 200 {
		t.Fatalf("nearest k=3 = %d", code)
	}
	if nk.K != 3 || nk.Count != len(want) || len(nk.Neighbors) != len(want) {
		t.Fatalf("nearest-k shape %+v, want %d neighbors", nk, len(want))
	}
	for i, n := range nk.Neighbors {
		if n.ID != want[i].ID || n.Distance != want[i].Planar {
			t.Errorf("neighbor %d = %+v, core says id=%d d=%g", i, n, want[i].ID, want[i].Planar)
		}
	}
	// k=1 equals the legacy response's answer.
	var n1 nearestKBody
	if code := get(t, ts, "/v1/nearest?x=42&y=31&k=1", &n1); code != 200 {
		t.Fatalf("nearest k=1 = %d", code)
	}
	var legacy struct {
		ID       int32   `json:"id"`
		Distance float64 `json:"distance"`
	}
	if code := get(t, ts, "/v1/nearest?x=42&y=31", &legacy); code != 200 {
		t.Fatalf("legacy nearest = %d", code)
	}
	if len(n1.Neighbors) != 1 || n1.Neighbors[0].ID != legacy.ID || n1.Neighbors[0].Distance != legacy.Distance {
		t.Fatalf("k=1 %+v disagrees with legacy %+v", n1.Neighbors, legacy)
	}
	// Validation.
	if code := get(t, ts, "/v1/nearest?x=0&y=0&k=0", nil); code != 400 {
		t.Errorf("k=0 = %d, want 400", code)
	}
	if code := get(t, ts, "/v1/nearest?x=0&y=0&k=junk", nil); code != 400 {
		t.Errorf("k=junk = %d, want 400", code)
	}
	// k beyond the point count returns everything.
	var all nearestKBody
	if code := get(t, ts, fmt.Sprintf("/v1/nearest?x=0&y=0&k=%d", o.NumPOIs()+5), &all); code != 200 {
		t.Fatalf("k>n = %d", code)
	}
	if all.Count != o.NumPOIs() {
		t.Errorf("k>n returned %d, want all %d", all.Count, o.NumPOIs())
	}
}

// TestNearestKOnMulti: unnamed k-nearest on a multi server merges every
// member globally with member tags; a named member answers locally.
func TestNearestKOnMulti(t *testing.T) {
	sh, _ := shardedWorld(t)
	ts := httptest.NewServer(New(sh).Handler())
	defer ts.Close()

	want, err := sh.NearestKAcross(40, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	var nk nearestKBody
	if code := get(t, ts, "/v1/nearest?x=40&y=40&k=4", &nk); code != 200 {
		t.Fatalf("multi nearest-k = %d", code)
	}
	if nk.Kind != "multi" || len(nk.Neighbors) != len(want) {
		t.Fatalf("multi nearest-k %+v, want %d neighbors", nk, len(want))
	}
	for i, n := range nk.Neighbors {
		if n.ID != want[i].ID || n.Index != want[i].Member || n.Distance != want[i].Planar {
			t.Errorf("neighbor %d = %+v, core says %+v", i, n, want[i])
		}
	}
	// Named member: local answer tagged with that member only.
	name := sh.Members()[1].Name
	local, err := sh.Members()[1].Index.(core.NearestKFinder).NearestK(40, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ln nearestKBody
	if code := get(t, ts, fmt.Sprintf("/v1/nearest?x=40&y=40&k=2&index=%s", name), &ln); code != 200 {
		t.Fatalf("named nearest-k = %d", code)
	}
	if ln.Index != name || len(ln.Neighbors) != len(local) || ln.Neighbors[0].ID != local[0].ID {
		t.Fatalf("named nearest-k %+v, core says %+v", ln, local)
	}
}

// TestIsochrone: the GeoJSON FeatureCollection carries one contour plus a
// Point per reached POI, and membership matches core.Reachable exactly.
func TestIsochrone(t *testing.T) {
	o := seOracle(t)
	ts := httptest.NewServer(New(o).Handler())
	defer ts.Close()

	// A mid-range budget: reach some but not all POIs.
	far, err := o.Query(0, int32(o.NumPOIs()-1))
	if err != nil {
		t.Fatal(err)
	}
	budget := far / 2
	want, err := o.Reachable(0, budget)
	if err != nil {
		t.Fatal(err)
	}
	var iso isochroneBody
	if code := get(t, ts, fmt.Sprintf("/v1/isochrone?s=0&d=%g", budget), &iso); code != 200 {
		t.Fatalf("isochrone = %d", code)
	}
	if iso.Type != "FeatureCollection" || len(iso.Features) != len(want)+1 {
		t.Fatalf("isochrone has %d features, want contour + %d points", len(iso.Features), len(want))
	}
	if iso.Features[0].Properties["role"] != "contour" {
		t.Fatalf("first feature is %+v, want the contour", iso.Features[0].Properties)
	}
	if cnt, ok := iso.Properties["count"].(float64); !ok || int(cnt) != len(want) {
		t.Fatalf("properties.count = %v, want %d", iso.Properties["count"], len(want))
	}
	for i, r := range want {
		f := iso.Features[i+1]
		if f.Geometry.Type != "Point" || int32(f.Properties["id"].(float64)) != r.ID ||
			f.Properties["distance"].(float64) != r.Distance {
			t.Errorf("feature %d = %+v, core says %+v", i+1, f.Properties, r)
		}
	}
	// A budget of everything draws a Polygon contour.
	var full isochroneBody
	if code := get(t, ts, fmt.Sprintf("/v1/isochrone?s=0&d=%g", far*4), &full); code != 200 {
		t.Fatalf("full isochrone = %d", code)
	}
	if full.Features[0].Geometry.Type != "Polygon" {
		t.Errorf("full contour is a %s, want Polygon", full.Features[0].Geometry.Type)
	}
	// A zero budget reaches only the source, drawn as a Point contour.
	var self isochroneBody
	if code := get(t, ts, "/v1/isochrone?s=0&d=0", &self); code != 200 {
		t.Fatalf("zero-budget isochrone = %d", code)
	}
	if len(self.Features) != 2 || self.Features[0].Geometry.Type != "Point" {
		t.Fatalf("zero-budget isochrone %+v, want the source alone", self.Features)
	}
	// Validation.
	for _, q := range []string{"/v1/isochrone", "/v1/isochrone?s=0", "/v1/isochrone?d=5",
		"/v1/isochrone?s=0&d=-1", "/v1/isochrone?s=0&d=Inf", "/v1/isochrone?s=9999&d=5"} {
		if code := get(t, ts, q, nil); code != 400 {
			t.Errorf("%s = %d, want 400", q, code)
		}
	}
}

// TestIsochroneOnMulti: an unnamed id-addressed isochrone scans the global
// id space, which crosses the members of a single-level container (422);
// the named form answers member-locally.
func TestIsochroneOnMulti(t *testing.T) {
	sh, _ := shardedWorld(t)
	ts := httptest.NewServer(New(sh).Handler())
	defer ts.Close()

	if code := get(t, ts, "/v1/isochrone?s=0&d=100", nil); code != 422 {
		t.Fatalf("unnamed multi isochrone = %d, want 422", code)
	}
	name := sh.Members()[0].Name
	want, err := sh.Members()[0].Index.(core.Reachability).Reachable(0, 1e15)
	if err != nil {
		t.Fatal(err)
	}
	var iso isochroneBody
	if code := get(t, ts, "/v1/isochrone?s=0&d=1000000000000000&index="+name, &iso); code != 200 {
		t.Fatalf("named isochrone = %d", code)
	}
	if len(iso.Features) != len(want)+1 || iso.Properties["index"] != name {
		t.Fatalf("named isochrone %d features / index %v, want %d+1 / %s",
			len(iso.Features), iso.Properties["index"], len(want), name)
	}
}

// TestWorkloadCacheHits: repeated matrix, nearest-k and isochrone requests
// are served from the LRU under their own key families.
func TestWorkloadCacheHits(t *testing.T) {
	ts := httptest.NewServer(NewWithOptions(seOracle(t), Options{CacheSize: 64}).Handler())
	defer ts.Close()

	snapshot := func() (hits, misses int64) {
		var st struct {
			Cache struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"cache"`
		}
		if code := get(t, ts, "/statsz", &st); code != 200 {
			t.Fatalf("statsz = %d", code)
		}
		return st.Cache.Hits, st.Cache.Misses
	}
	body := map[string]interface{}{"sources": []int32{0, 1}, "targets": []int32{2, 3}}
	var first, second matrixBody
	post(t, ts, "/v1/matrix", body, &first)
	get(t, ts, "/v1/nearest?x=5&y=5&k=2", nil)
	get(t, ts, "/v1/isochrone?s=0&d=50", nil)
	h0, m0 := snapshot()
	if h0 != 0 || m0 != 3 {
		t.Fatalf("after first pass: hits=%d misses=%d, want 0/3", h0, m0)
	}
	post(t, ts, "/v1/matrix", body, &second)
	get(t, ts, "/v1/nearest?x=5&y=5&k=2", nil)
	get(t, ts, "/v1/isochrone?s=0&d=50", nil)
	h1, m1 := snapshot()
	if h1 != 3 || m1 != 3 {
		t.Fatalf("after repeat pass: hits=%d misses=%d, want 3/3", h1, m1)
	}
	if len(first.Distances) != len(second.Distances) {
		t.Fatal("cached matrix response differs")
	}
	for i := range first.Distances {
		if first.Distances[i] != second.Distances[i] {
			t.Fatalf("cached matrix cell %d differs: %g vs %g", i, first.Distances[i], second.Distances[i])
		}
	}
}
