package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// buildSharded builds a sharded SE index over the test world.
func buildSharded(t *testing.T, w *testWorld, shards int, opt Options) *ShardedIndex {
	t.Helper()
	sh, err := BuildShardedLOD(w.eng, w.mesh, w.pois, shards, LODOptions{Options: opt})
	if err != nil {
		t.Fatalf("BuildShardedLOD: %v", err)
	}
	return sh
}

// poiIndexOf maps a member-local surface point back to its index in the
// original POI set (the builder never perturbs coordinates, so exact float
// equality identifies the point).
func poiIndexOf(t *testing.T, pois []terrain.SurfacePoint, p terrain.SurfacePoint) int {
	t.Helper()
	for i, q := range pois {
		if q.P == p.P && q.Face == p.Face && q.Vert == p.Vert {
			return i
		}
	}
	t.Fatalf("member point %+v not in the original POI set", p)
	return -1
}

// TestShardedBuildPartition: every POI lands in exactly one member, member
// bboxes contain their POIs, coordinate routing finds the member that owns a
// POI, and member queries stay within the ε bound of the exact distances.
func TestShardedBuildPartition(t *testing.T) {
	w := newTestWorld(t, 11, 30, 971)
	eps := 0.2
	sh := buildSharded(t, w, 4, Options{Epsilon: eps, Seed: 972})
	if sh.NumMembers() < 2 {
		t.Fatalf("want >= 2 members from 4 tiles over %d POIs, got %d", len(w.pois), sh.NumMembers())
	}
	total := 0
	for _, m := range sh.Members() {
		o := m.Index.(*Oracle)
		total += o.NumPOIs()
		for _, p := range mustPoints(t, o) {
			// Half-open routing containment (the tiling assigns boundary
			// POIs with the same [min,max) rule, outer edges included).
			if !sh.contains(m.BBox, p.P.X, p.P.Y) {
				t.Errorf("member %s: POI at (%g,%g) outside bbox %+v", m.Name, p.P.X, p.P.Y, m.BBox)
			}
		}
	}
	if total != len(w.pois) {
		t.Fatalf("members hold %d POIs, world has %d", total, len(w.pois))
	}
	// Routing: each POI's coordinates locate a member that holds it.
	for i, p := range w.pois {
		m, contained := sh.Locate(p.P.X, p.P.Y)
		if !contained {
			t.Fatalf("POI %d at (%g,%g) located no member", i, p.P.X, p.P.Y)
		}
		found := false
		for _, q := range mustPoints(t, m.Index.(*Oracle)) {
			if q.P == p.P {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("POI %d routed to member %s, which does not hold it", i, m.Name)
		}
	}
	// Accuracy: member-local queries stay within (1±ε) of the exact
	// distances between the corresponding original POIs.
	for _, m := range sh.Members() {
		o := m.Index.(*Oracle)
		pts := mustPoints(t, o)
		for s := 0; s < len(pts); s++ {
			for q := s + 1; q < len(pts); q++ {
				got, err := o.Query(int32(s), int32(q))
				if err != nil {
					t.Fatalf("member %s (%d,%d): %v", m.Name, s, q, err)
				}
				want := w.exact[poiIndexOf(t, w.pois, pts[s])][poiIndexOf(t, w.pois, pts[q])]
				if got < (1-eps)*want-1e-9 || got > (1+eps)*want+1e-9 {
					t.Errorf("member %s (%d,%d): %g outside (1±%g)·%g", m.Name, s, q, got, eps, want)
				}
			}
		}
	}
}

// TestLocateFallsBackToClosestMember: routing is total — a point no member
// bbox contains (an empty dropped tile, or just off the terrain) goes to
// the planar-closest member, never nowhere.
func TestLocateFallsBackToClosestMember(t *testing.T) {
	w := newTestWorld(t, 9, 14, 985)
	o := w.build(t, Options{Epsilon: 0.3, Seed: 986})
	sh, err := NewShardedIndex([]ShardMember{
		{Name: "left", BBox: BBox2D{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, Index: o},
		{Name: "right", BBox: BBox2D{MinX: 100, MinY: 0, MaxX: 110, MaxY: 10}, Index: o},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x, y      float64
		want      string
		contained bool
	}{
		{5, 5, "left", true},
		{105, 5, "right", true},
		{40, 5, "left", false},  // gap between the boxes: closer to left
		{80, 5, "right", false}, // closer to right
		{-50, 200, "left", false},
		{200, -50, "right", false},
	}
	for _, tc := range cases {
		m, contained := sh.Locate(tc.x, tc.y)
		if m.Name != tc.want || contained != tc.contained {
			t.Errorf("Locate(%g,%g) = %s/%v, want %s/%v", tc.x, tc.y, m.Name, contained, tc.want, tc.contained)
		}
	}
}

// TestNearestAcrossIsGlobal: NearestAcross must agree with a brute-force
// scan over every member's points — including probes near tile boundaries,
// where the bbox-routed member's local nearest is the wrong answer.
func TestNearestAcrossIsGlobal(t *testing.T) {
	w := newTestWorld(t, 11, 28, 987)
	sh := buildSharded(t, w, 4, Options{Epsilon: 0.25, Seed: 988})
	bruteforce := func(x, y float64) (string, float64) {
		bestName, bestD2 := "", math.Inf(1)
		for _, m := range sh.Members() {
			for _, p := range mustPoints(t, m.Index.(*Oracle)) {
				dx, dy := p.P.X-x, p.P.Y-y
				if d2 := dx*dx + dy*dy; d2 < bestD2 {
					bestName, bestD2 = m.Name, d2
				}
			}
		}
		return bestName, math.Sqrt(bestD2)
	}
	// Probe at every POI (distance 0), nudged POIs (boundary crossings), and
	// a grid over the terrain including off-terrain points.
	var probes [][2]float64
	for _, p := range w.pois {
		probes = append(probes, [2]float64{p.P.X, p.P.Y}, [2]float64{p.P.X - 3, p.P.Y + 2})
	}
	for x := -20.0; x <= 120; x += 17 {
		for y := -20.0; y <= 120; y += 17 {
			probes = append(probes, [2]float64{x, y})
		}
	}
	for _, pr := range probes {
		m, _, _, d, err := sh.NearestAcross(pr[0], pr[1])
		if err != nil {
			t.Fatalf("NearestAcross(%g,%g): %v", pr[0], pr[1], err)
		}
		wantName, wantD := bruteforce(pr[0], pr[1])
		if m.Name != wantName || math.Abs(d-wantD) > 1e-12*(1+wantD) {
			t.Errorf("NearestAcross(%g,%g) = %s/%g, brute force says %s/%g",
				pr[0], pr[1], m.Name, d, wantName, wantD)
		}
	}
}

// TestShardedRoundTrip: encode → load → the same member names, bboxes and
// answers; re-encode is byte-identical (the acceptance bar for the multi
// container format).
func TestShardedRoundTrip(t *testing.T) {
	w := newTestWorld(t, 11, 26, 973)
	sh := buildSharded(t, w, 2, Options{Epsilon: 0.25, Seed: 974})
	enc := encodeIndex(t, sh)

	idx := loadIndex(t, enc)
	sh2, ok := idx.(*ShardedIndex)
	if !ok {
		t.Fatalf("Load returned %T, want *ShardedIndex", idx)
	}
	st := sh2.Stats()
	if st.Kind != KindMulti || st.Members != sh.NumMembers() || st.Points != len(w.pois) {
		t.Fatalf("loaded stats %+v", st)
	}
	for i, m := range sh.Members() {
		m2 := sh2.Members()[i]
		if m2.Name != m.Name || m2.BBox != m.BBox {
			t.Fatalf("member %d: %+v vs %+v", i, m2, m.BBox)
		}
		n := m.Index.(*Oracle).NumPOIs()
		for s := 0; s < n; s++ {
			a, err1 := m.Index.Query(int32(s), 0)
			b, err2 := m2.Index.Query(int32(s), 0)
			if err1 != nil || err2 != nil || a != b {
				t.Fatalf("member %s (%d,0): %v/%v vs %v/%v", m.Name, s, a, err1, b, err2)
			}
		}
	}
	if re := encodeIndex(t, sh2); !bytes.Equal(enc, re) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(enc), len(re))
	}
}

// TestShardedDeterministicAcrossWorkers: the per-shard output is
// byte-identical for any worker count (the PR 1 determinism contract lifted
// to the tiled build).
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	w := newTestWorld(t, 9, 22, 975)
	a := buildSharded(t, w, 4, Options{Epsilon: 0.3, Seed: 976, Workers: 1})
	b := buildSharded(t, w, 4, Options{Epsilon: 0.3, Seed: 976, Workers: 8})
	if ea, eb := encodeIndex(t, a), encodeIndex(t, b); !bytes.Equal(ea, eb) {
		t.Fatalf("workers 1 vs 8 containers differ: %d vs %d bytes", len(ea), len(eb))
	}
}

// TestShardedQueryAmbiguity: unnamed id-addressed queries on a multi index
// are not ambiguous — they address the global id space. A same-member pair
// answers what its member says; a cross-member pair of a single-level
// container fails with CrossMemberError, which the batch surface propagates
// with the offending pair index. A single-member multi answers through its
// member.
func TestShardedQueryAmbiguity(t *testing.T) {
	w := newTestWorld(t, 9, 18, 977)
	sh := buildSharded(t, w, 2, Options{Epsilon: 0.3, Seed: 978})
	if sh.NumMembers() < 2 {
		t.Skipf("world produced %d members", sh.NumMembers())
	}
	// A same-member global pair answers what the member says, bit for bit.
	name, _, _ := sh.MemberOf(0)
	m, _ := sh.Member(name)
	want, err := m.Index.Query(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sh.Query(0, 1); err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("same-member global Query = %g/%v, member says %g", got, err, want)
	}
	// A cross-member pair has no route in a single-level container.
	last := int32(sh.NumGlobalIDs() - 1)
	lastName, _, _ := sh.MemberOf(last)
	var cme *CrossMemberError
	if _, err := sh.Query(0, last); !errors.As(err, &cme) || cme.SMember != name || cme.TMember != lastName {
		t.Fatalf("cross-member Query = %v, want CrossMemberError naming %s and %s", err, name, lastName)
	}
	if _, err := sh.QueryBatch([][2]int32{{0, 1}, {0, last}}, nil); !errors.As(err, &cme) || !strings.Contains(err.Error(), "pair 1") {
		t.Fatalf("cross-member QueryBatch = %v, want pair-indexed CrossMemberError", err)
	}

	one, err := NewShardedIndex(sh.Members()[:1])
	if err != nil {
		t.Fatal(err)
	}
	want, err = one.Members()[0].Index.Query(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := one.Query(0, 1); err != nil || got != want {
		t.Fatalf("single-member Query = %g/%v, want %g", got, err, want)
	}
}

// TestNewShardedIndexValidation: the constructor rejects the member lists no
// manifest may describe.
func TestNewShardedIndexValidation(t *testing.T) {
	w := newTestWorld(t, 9, 10, 979)
	o := w.build(t, Options{Epsilon: 0.3, Seed: 980})
	bb := BBox2D{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	cases := []struct {
		name    string
		members []ShardMember
		wantErr string
	}{
		{"empty", nil, "at least one"},
		{"dup-names", []ShardMember{{"a", bb, o}, {"a", bb, o}}, "duplicate"},
		{"bad-name", []ShardMember{{"a b", bb, o}}, "contains"},
		{"empty-name", []ShardMember{{"", bb, o}}, "empty"},
		{"inverted-bbox", []ShardMember{{"a", BBox2D{MinX: 2, MaxX: 1, MinY: 0, MaxY: 1}, o}}, "inverted"},
		{"nil-index", []ShardMember{{"a", bb, nil}}, "no index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewShardedIndex(tc.members); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("NewShardedIndex = %v, want %q", err, tc.wantErr)
			}
		})
	}
	// Nesting a multi inside a multi is refused.
	inner, err := NewShardedIndex([]ShardMember{{"a", bb, o}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedIndex([]ShardMember{{"outer", bb, inner}}); err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Fatalf("nested multi = %v, want nesting error", err)
	}
}

// rawMember encodes one index as container bytes.
func rawMember(t *testing.T, idx DistanceIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := idx.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// manifestBytes hand-builds a multi manifest payload for corruption tests.
func manifestBytes(t *testing.T, entries []struct {
	kind Kind
	name string
	bbox BBox2D
}) []byte {
	t.Helper()
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, int64(len(entries)))
	for _, e := range entries {
		binary.Write(&buf, binary.LittleEndian, []uint16{uint16(e.kind), uint16(len(e.name))})
		buf.WriteString(e.name)
		binary.Write(&buf, binary.LittleEndian, [4]float64{e.bbox.MinX, e.bbox.MinY, e.bbox.MaxX, e.bbox.MaxY})
	}
	return buf.Bytes()
}

// TestMultiContainerRejectsCorruption: a multi container whose manifest lies
// — about the member count (either direction), a member's kind, names or
// bboxes — must be rejected, never served.
func TestMultiContainerRejectsCorruption(t *testing.T) {
	w := newTestWorld(t, 9, 12, 981)
	o := w.build(t, Options{Epsilon: 0.3, Seed: 982})
	body := rawMember(t, o)
	bb := BBox2D{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	entry := func(kind Kind, name string) struct {
		kind Kind
		name string
		bbox BBox2D
	} {
		return struct {
			kind Kind
			name string
			bbox BBox2D
		}{kind, name, bb}
	}

	load := func(t *testing.T, secs []section) error {
		t.Helper()
		var buf bytes.Buffer
		if err := writeContainer(&buf, KindMulti, secs); err != nil {
			t.Fatal(err)
		}
		_, err := Load(bytes.NewReader(buf.Bytes()))
		return err
	}

	t.Run("count-overclaims", func(t *testing.T) {
		man := manifestBytes(t, []struct {
			kind Kind
			name string
			bbox BBox2D
		}{entry(KindSE, "a"), entry(KindSE, "b")})
		err := load(t, []section{bytesSection(secManifest, man), bytesSection(secMemberBase, body)})
		if err == nil || !strings.Contains(err.Error(), "no section") {
			t.Fatalf("overclaiming manifest = %v", err)
		}
	})
	t.Run("count-underclaims", func(t *testing.T) {
		man := manifestBytes(t, []struct {
			kind Kind
			name string
			bbox BBox2D
		}{entry(KindSE, "a")})
		err := load(t, []section{
			bytesSection(secManifest, man),
			bytesSection(secMemberBase, body),
			bytesSection(secMemberBase+1, body),
		})
		if err == nil || !strings.Contains(err.Error(), "beyond") {
			t.Fatalf("underclaiming manifest = %v", err)
		}
	})
	t.Run("kind-mismatch", func(t *testing.T) {
		man := manifestBytes(t, []struct {
			kind Kind
			name string
			bbox BBox2D
		}{entry(KindA2A, "a")})
		err := load(t, []section{bytesSection(secManifest, man), bytesSection(secMemberBase, body)})
		if err == nil || !strings.Contains(err.Error(), "kind") {
			t.Fatalf("kind-lying manifest = %v", err)
		}
	})
	t.Run("duplicate-names", func(t *testing.T) {
		man := manifestBytes(t, []struct {
			kind Kind
			name string
			bbox BBox2D
		}{entry(KindSE, "a"), entry(KindSE, "a")})
		err := load(t, []section{
			bytesSection(secManifest, man),
			bytesSection(secMemberBase, body),
			bytesSection(secMemberBase+1, body),
		})
		if err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("duplicate names = %v", err)
		}
	})
	t.Run("truncated-manifest", func(t *testing.T) {
		man := manifestBytes(t, []struct {
			kind Kind
			name string
			bbox BBox2D
		}{entry(KindSE, "a")})
		err := load(t, []section{bytesSection(secManifest, man[:len(man)-8]), bytesSection(secMemberBase, body)})
		if err == nil {
			t.Fatal("truncated manifest accepted")
		}
	})
	t.Run("nested-multi-member", func(t *testing.T) {
		sh, err := NewShardedIndex([]ShardMember{{Name: "inner", BBox: bb, Index: o}})
		if err != nil {
			t.Fatal(err)
		}
		man := manifestBytes(t, []struct {
			kind Kind
			name string
			bbox BBox2D
		}{entry(KindMulti, "outer")})
		err = load(t, []section{bytesSection(secManifest, man), bytesSection(secMemberBase, rawMember(t, sh))})
		if err == nil || !strings.Contains(err.Error(), "nesting") {
			t.Fatalf("nested multi member = %v", err)
		}
	})
	t.Run("corrupt-member-body", func(t *testing.T) {
		man := manifestBytes(t, []struct {
			kind Kind
			name string
			bbox BBox2D
		}{entry(KindSE, "a")})
		bad := append([]byte(nil), body...)
		bad[len(bad)/2] ^= 0x10
		err := load(t, []section{bytesSection(secManifest, man), bytesSection(secMemberBase, bad)})
		if err == nil {
			t.Fatal("corrupt member body accepted")
		}
	})
	t.Run("zero-members", func(t *testing.T) {
		man := manifestBytes(t, nil)
		err := load(t, []section{bytesSection(secManifest, man)})
		if err == nil || !strings.Contains(err.Error(), "members") {
			t.Fatalf("zero-member manifest = %v", err)
		}
	})
}

// TestShardGrid: the tile grid factors K with kx·ky == K.
func TestShardGrid(t *testing.T) {
	for k := 1; k <= maxShardMembers; k++ {
		kx, ky := shardGrid(k)
		if kx*ky != k || kx < 1 || ky < 1 || ky > kx {
			t.Errorf("shardGrid(%d) = %dx%d", k, kx, ky)
		}
	}
	if kx, ky := shardGrid(2); kx != 2 || ky != 1 {
		t.Errorf("shardGrid(2) = %dx%d, want 2x1", kx, ky)
	}
}

// flatGridWorld builds a flat height-field terrain whose vertex coordinates
// are exact small integers, so planar distances to symmetric vertices tie
// exactly in floating point.
func flatGridWorld(t *testing.T, n int) (*terrain.Mesh, *geodesic.Exact) {
	t.Helper()
	m, err := terrain.NewGrid(n, n, 1, 1, make([]float64, n*n))
	if err != nil {
		t.Fatal(err)
	}
	return m, geodesic.NewExact(m)
}

// TestNearestAcrossTieBreaksByName: a query point exactly equidistant
// between two members' nearest POIs must pick the lower member NAME — not
// the earlier manifest position. The lower-named member is deliberately
// placed second in the manifest so the old iteration-order tie-break would
// return the wrong member.
func TestNearestAcrossTieBreaksByName(t *testing.T) {
	m, eng := flatGridWorld(t, 5)
	opt := Options{Epsilon: 0.5, Seed: 1}
	oracleAt := func(v int32) *Oracle {
		o, err := Build(eng, []terrain.SurfacePoint{m.VertexPoint(v)}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	// Row y=2 of the 5x5 unit grid: vertex ids 2*5+x. POIs at x=1 and x=3;
	// the query at (2, 2) is exactly 1.0 from both.
	left := oracleAt(2*5 + 1)
	right := oracleAt(2*5 + 3)
	sh, err := NewShardedIndex([]ShardMember{
		{Name: "tile-z", BBox: BBox2D{MinX: 0, MinY: 0, MaxX: 2, MaxY: 4}, Index: left},
		{Name: "tile-a", BBox: BBox2D{MinX: 2, MinY: 0, MaxX: 4, MaxY: 4}, Index: right},
	})
	if err != nil {
		t.Fatal(err)
	}
	mm, _, _, d, err := sh.NearestAcross(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1.0 {
		t.Fatalf("tie setup broken: nearest distance %v, want exactly 1.0", d)
	}
	if mm.Name != "tile-a" {
		t.Fatalf("equal-distance tie went to %q, want lower name %q", mm.Name, "tile-a")
	}
	// A non-tied query still picks the closer member regardless of name.
	mm, _, _, _, err = sh.NearestAcross(0.9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mm.Name != "tile-z" {
		t.Fatalf("closer member lost to name order: got %q", mm.Name)
	}
}

// TestLocateHalfOpenBoundary: a point exactly on a shared tile boundary
// belongs to the member whose min edge it is — independent of manifest
// order, and identically after an encode → load round trip. The index's
// outer max edges stay owned by their boundary members.
func TestLocateHalfOpenBoundary(t *testing.T) {
	m, eng := flatGridWorld(t, 5)
	opt := Options{Epsilon: 0.5, Seed: 1}
	build := func(vs ...int32) *Oracle {
		pts := make([]terrain.SurfacePoint, len(vs))
		for i, v := range vs {
			pts[i] = m.VertexPoint(v)
		}
		o, err := Build(eng, pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	west := ShardMember{Name: "west", BBox: BBox2D{MinX: 0, MinY: 0, MaxX: 2, MaxY: 4}, Index: build(2*5+0, 2*5+1)}
	east := ShardMember{Name: "east", BBox: BBox2D{MinX: 2, MinY: 0, MaxX: 4, MaxY: 4}, Index: build(2*5+3, 2*5+4)}
	for _, order := range [][]ShardMember{{west, east}, {east, west}} {
		sh, err := NewShardedIndex(order)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sh.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		loadedIdx, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		loaded := loadedIdx.(*ShardedIndex)
		for _, idx := range []*ShardedIndex{sh, loaded} {
			cases := []struct {
				x, y float64
				want string
			}{
				{2, 1, "east"}, // shared boundary: belongs to the min-edge member
				{1.9, 1, "west"},
				{2.1, 1, "east"},
				{0, 1, "west"}, // outer min edge
				{4, 1, "east"}, // outer max edge stays with its boundary member
				{2, 4, "east"}, // corner on the shared edge and the outer max y
			}
			for _, c := range cases {
				got, contained := idx.Locate(c.x, c.y)
				if !contained {
					t.Fatalf("order %s/%s: (%g,%g) located no containing member", order[0].Name, order[1].Name, c.x, c.y)
				}
				if got.Name != c.want {
					t.Errorf("order %s/%s: (%g,%g) routed to %q, want %q",
						order[0].Name, order[1].Name, c.x, c.y, got.Name, c.want)
				}
			}
		}
	}
}
