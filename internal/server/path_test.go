package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"seoracle/internal/core"
	"seoracle/internal/geodesic"
)

// pathBody mirrors /v1/path's GeoJSON Feature shape.
type pathBody struct {
	Type     string `json:"type"`
	Geometry struct {
		Type        string       `json:"type"`
		Coordinates [][3]float64 `json:"coordinates"`
	} `json:"geometry"`
	Properties struct {
		Distance float64 `json:"distance"`
		Vertices int     `json:"vertices"`
		Kind     string  `json:"kind"`
		Index    string  `json:"index"`
	} `json:"properties"`
}

// checkPathBody asserts the GeoJSON invariants: Feature/LineString typing,
// vertex count agreement, and distance == summed coordinate polyline.
func checkPathBody(t *testing.T, p pathBody, wantKind string) {
	t.Helper()
	if p.Type != "Feature" || p.Geometry.Type != "LineString" {
		t.Fatalf("GeoJSON typing %q/%q, want Feature/LineString", p.Type, p.Geometry.Type)
	}
	if p.Properties.Vertices != len(p.Geometry.Coordinates) {
		t.Fatalf("vertices property %d, coordinates %d", p.Properties.Vertices, len(p.Geometry.Coordinates))
	}
	if len(p.Geometry.Coordinates) < 2 {
		t.Fatalf("LineString has %d positions", len(p.Geometry.Coordinates))
	}
	if p.Properties.Kind != wantKind {
		t.Fatalf("kind %q, want %q", p.Properties.Kind, wantKind)
	}
	sum := 0.0
	for i := 1; i < len(p.Geometry.Coordinates); i++ {
		a, b := p.Geometry.Coordinates[i-1], p.Geometry.Coordinates[i]
		dx, dy, dz := b[0]-a[0], b[1]-a[1], b[2]-a[2]
		sum += math.Sqrt(dx*dx + dy*dy + dz*dz)
	}
	if math.Abs(sum-p.Properties.Distance) > 1e-9*(1+p.Properties.Distance) {
		t.Fatalf("distance %v != coordinate polyline length %v", p.Properties.Distance, sum)
	}
}

// TestPathSE: id-addressed paths on a single SE container, GET and POST,
// with the Query scalar inside the path's ε band.
func TestPathSE(t *testing.T) {
	o := seOracle(t)
	ts := httptest.NewServer(New(o).Handler())
	defer ts.Close()

	var p pathBody
	if code := get(t, ts, "/v1/path?s=0&t=5", &p); code != 200 {
		t.Fatalf("/v1/path = %d", code)
	}
	checkPathBody(t, p, "flat")
	d, err := o.Query(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Properties.Distance < d-1e-7*(1+d) {
		t.Fatalf("path distance %v below Query %v", p.Properties.Distance, d)
	}

	var pp pathBody
	if code := post(t, ts, "/v1/path", map[string]any{"s": 0, "t": 5}, &pp); code != 200 {
		t.Fatalf("POST /v1/path = %d", code)
	}
	if pp.Properties.Distance != p.Properties.Distance {
		t.Fatalf("POST path distance %v, GET %v", pp.Properties.Distance, p.Properties.Distance)
	}

	// Bad ids are 400s, missing addressing is a 400.
	var er errorResponse
	if code := get(t, ts, "/v1/path?s=0&t=9999", &er); code != 400 {
		t.Errorf("out-of-range path = %d, want 400", code)
	}
	if code := get(t, ts, "/v1/path", &er); code != 400 {
		t.Errorf("unaddressed path = %d, want 400", code)
	}
}

// TestPathCoordinatesA2A: coordinate-addressed paths on an a2a container,
// and id-addressed kinds reject coordinate paths with 501.
func TestPathCoordinatesA2A(t *testing.T) {
	m, _, eng := testWorld(t)
	so, err := core.BuildSiteOracle(eng, m, core.SiteOptions{Options: core.Options{Epsilon: 0.3, Seed: 75}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(so).Handler())
	defer ts.Close()

	var p pathBody
	if code := get(t, ts, "/v1/path?sx=10&sy=10&tx=60&ty=55", &p); code != 200 {
		t.Fatalf("coordinate path = %d", code)
	}
	checkPathBody(t, p, "a2a")

	// An SE container has no coordinate-path surface.
	seTS := httptest.NewServer(New(seOracle(t)).Handler())
	defer seTS.Close()
	var er errorResponse
	if code := get(t, seTS, "/v1/path?sx=10&sy=10&tx=60&ty=55", &er); code != 501 {
		t.Errorf("coordinate path on se = %d, want 501", code)
	}
}

// distanceOnly hides every capability of an engine but DistancesTo, so an
// oracle built on it carries no terrain and no path engine.
type distanceOnly struct{ geodesic.Engine }

// TestPathNoGeometryIs501: an index that cannot report paths at all (built
// on an engine that exposes no terrain, and loaded back from its
// container) answers 501, not 500.
func TestPathNoGeometryIs501(t *testing.T) {
	_, pois, eng := testWorld(t)
	o, err := core.Build(distanceOnly{eng}, pois, core.Options{Epsilon: 0.2, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(loaded).Handler())
	defer ts.Close()
	var er errorResponse
	if code := get(t, ts, "/v1/path?s=0&t=1", &er); code != 501 && code != 400 {
		t.Errorf("no-geometry path = %d, want 501 or 400", code)
	}
}

// TestPathCached: with the LRU enabled, a repeated path query is a cache
// hit and the coordinates are identical.
func TestPathCached(t *testing.T) {
	srv := NewWithOptions(seOracle(t), Options{CacheSize: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var a, b pathBody
	if code := get(t, ts, "/v1/path?s=1&t=4", &a); code != 200 {
		t.Fatalf("first path = %d", code)
	}
	if code := get(t, ts, "/v1/path?s=1&t=4", &b); code != 200 {
		t.Fatalf("second path = %d", code)
	}
	if a.Properties.Distance != b.Properties.Distance || len(a.Geometry.Coordinates) != len(b.Geometry.Coordinates) {
		t.Fatalf("cached path differs: %+v vs %+v", a.Properties, b.Properties)
	}
	if hits := srv.cache.hits.Load(); hits < 1 {
		t.Fatalf("repeat path query recorded %d cache hits, want >= 1", hits)
	}
	// Distance and path entries must not collide in the cache.
	var q struct {
		Distance float64 `json:"distance"`
	}
	if code := get(t, ts, "/v1/query?s=1&t=4", &q); code != 200 {
		t.Fatalf("query after path = %d", code)
	}
}

// TestPathMulti: on a sharded container, paths route by explicit member
// name exactly like /v1/query, and an unaddressed id path addresses the
// global id space: a same-member pair answers the member's path, a pair
// across the members of a single-level container answers 422.
func TestPathMulti(t *testing.T) {
	sh, _ := shardedWorld(t)
	ts := httptest.NewServer(New(sh).Handler())
	defer ts.Close()

	for _, m := range sh.Members() {
		if m.Index.Stats().Points < 2 {
			continue
		}
		if _, _, err := m.Index.(core.PathIndex).QueryPath(0, 1); err != nil {
			t.Fatal(err)
		}
		var p pathBody
		if code := get(t, ts, "/v1/path?index="+m.Name+"&s=0&t=1", &p); code != 200 {
			t.Fatalf("path index=%s = %d", m.Name, code)
		}
		checkPathBody(t, p, "flat")
		if p.Properties.Index != m.Name {
			t.Fatalf("path answered by %q, want %q", p.Properties.Index, m.Name)
		}
	}
	var er errorResponse
	_, wantD, err := sh.Members()[0].Index.(core.PathIndex).QueryPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var p pathBody
	if code := get(t, ts, "/v1/path?s=0&t=1", &p); code != 200 || p.Properties.Distance != wantD {
		t.Errorf("unaddressed multi path = %d %+v, want the first member's %g", code, p.Properties, wantD)
	}
	if code := get(t, ts, fmt.Sprintf("/v1/path?s=0&t=%d", sh.NumGlobalIDs()-1), &er); code != 422 {
		t.Errorf("unaddressed cross-member path = %d, want 422", code)
	}
	if code := get(t, ts, "/v1/path?index=nope&s=0&t=1", &er); code != 404 {
		t.Errorf("unknown member path = %d, want 404", code)
	}
}

// TestCoordRejectionsCounted: non-finite coordinates are rejected with a
// 400 before routing on every coordinate-bearing endpoint, and each
// rejection increments the coord_rejections counter in /statsz.
func TestCoordRejectionsCounted(t *testing.T) {
	m, _, eng := testWorld(t)
	so, err := core.BuildSiteOracle(eng, m, core.SiteOptions{Options: core.Options{Epsilon: 0.3, Seed: 77}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(so).Handler())
	defer ts.Close()

	bad := []string{
		"/v1/query?sx=NaN&sy=0&tx=1&ty=1",
		"/v1/query?sx=0&sy=Inf&tx=1&ty=1",
		"/v1/query?sx=0&sy=0&tx=-Inf&ty=1",
		"/v1/path?sx=NaN&sy=0&tx=1&ty=1",
		"/v1/nearest?x=NaN&y=0",
		"/v1/nearest?x=0&y=Inf",
	}
	var er errorResponse
	for _, q := range bad {
		if code := get(t, ts, q, &er); code != 400 {
			t.Errorf("%s = %d, want 400", q, code)
		}
	}
	var st struct {
		CoordRejections int64 `json:"coord_rejections"`
	}
	if code := get(t, ts, "/statsz", &st); code != 200 {
		t.Fatalf("statsz = %d", code)
	}
	if st.CoordRejections != int64(len(bad)) {
		t.Fatalf("coord_rejections = %d, want %d", st.CoordRejections, len(bad))
	}
	// A parse failure (garbage, not non-finite) is a 400 but not counted as
	// a coordinate rejection.
	if code := get(t, ts, "/v1/query?sx=zzz&sy=0&tx=1&ty=1", &er); code != 400 {
		t.Errorf("garbage coord = %d, want 400", code)
	}
	if code := get(t, ts, "/statsz", &st); code != 200 || st.CoordRejections != int64(len(bad)) {
		t.Fatalf("garbage parse counted as coordinate rejection: %d", st.CoordRejections)
	}
}
