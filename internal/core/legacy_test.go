package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"seoracle/internal/terrain"
)

// legacy_test.go — containers in layouts nothing writes any more must keep
// loading and answering exactly as the code that wrote them did.
// testdata/legacy holds one container of each affected shape — an se
// container, an a2a and a dynamic container with a decoded inner body, a
// hierarchical multi of se tiles (plus a coarse a2a member), and a 2-tile
// multi with no hierarchy section ("grid") — and answers.json pins their
// Query and QueryPath answers as Float64bits, recorded by the writing code.
// The grid's answers are pinned per member ("grid/<member>", member-local
// ids), since the code that wrote it had no global id space.

// legacyFixtures names the committed fixtures (testdata/legacy/<name>.sedx).
var legacyFixtures = []string{"se", "a2a", "dynamic", "multi", "grid"}

func readLegacyFixture(t testing.TB, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "legacy", name+".sedx"))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// legacyAnswer is one pinned (s, t) answer of a legacy fixture: the Query
// distance and the QueryPath length as Float64bits, plus the path's vertex
// count and an FNV-64a digest over every vertex's Face, Vert and coordinate
// bits.
type legacyAnswer struct {
	S, T     int32
	Query    uint64
	PathLen  uint64
	PathPts  int
	PathHash uint64
}

// legacyIDs returns the id space a fixture's answers sample: the live ids of
// a dynamic oracle, else 0..Points-1 (sites for a2a, global ids for a
// hierarchical multi).
func legacyIDs(idx DistanceIndex) []int32 {
	if d, ok := idx.(*DynamicOracle); ok {
		return d.LiveIDs()
	}
	return idRange(idx.Stats().Points)
}

// legacyAnswers samples at most ~8×8 id pairs of idx (a fixed stride, so the
// pairs are a function of the id space alone) and records each pair's Query
// and QueryPath answers.
func legacyAnswers(t *testing.T, idx DistanceIndex) []legacyAnswer {
	t.Helper()
	ids := legacyIDs(idx)
	pi, ok := idx.(PathIndex)
	if !ok {
		t.Fatalf("%T cannot report paths", idx)
	}
	step := len(ids)/8 + 1
	var out []legacyAnswer
	for i := 0; i < len(ids); i += step {
		for j := len(ids) - 1; j >= 0; j -= step {
			s, q := ids[i], ids[j]
			d, err := idx.Query(s, q)
			if err != nil {
				t.Fatalf("Query(%d,%d): %v", s, q, err)
			}
			path, plen, err := pi.QueryPath(s, q)
			if err != nil {
				t.Fatalf("QueryPath(%d,%d): %v", s, q, err)
			}
			out = append(out, legacyAnswer{S: s, T: q, Query: math.Float64bits(d),
				PathLen: math.Float64bits(plen), PathPts: len(path), PathHash: pathDigest(path)})
		}
	}
	return out
}

func pathDigest(path []terrain.SurfacePoint) uint64 {
	h := fnv.New64a()
	var rec [32]byte
	for _, p := range path {
		binary.LittleEndian.PutUint32(rec[0:], uint32(p.Face))
		binary.LittleEndian.PutUint32(rec[4:], uint32(p.Vert))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(p.P.X))
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(p.P.Y))
		binary.LittleEndian.PutUint64(rec[24:], math.Float64bits(p.P.Z))
		h.Write(rec[:])
	}
	return h.Sum64()
}

// TestLegacyFixturesLoad: every legacy fixture loads through Load,
// LoadBytes and (multi) a budgeted lazy LoadBytesOpts as the current types
// — SE oracles as the flat image — and answers bit-identically to the
// pinned answers; so does its re-encoding in the current layout, which is
// what seconvert writes. The grid loads as a single-level hierarchy: global
// id g answers bit-identically to the member-local pair MemberOf(g) names.
func TestLegacyFixturesLoad(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy", "answers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string][]legacyAnswer
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	for _, name := range legacyFixtures {
		blob := readLegacyFixture(t, name)
		check := func(label string, idx DistanceIndex) {
			if name == "grid" {
				checkGridAnswers(t, label, idx.(*ShardedIndex), pinned)
				return
			}
			checkLegacyAnswers(t, label, idx, pinned[name])
		}
		loaders := map[string]func([]byte) (DistanceIndex, error){
			"Load": func(b []byte) (DistanceIndex, error) { return Load(bytes.NewReader(b)) },
			"LoadBytes": func(b []byte) (DistanceIndex, error) {
				return LoadBytes(append([]byte(nil), b...), nil)
			},
		}
		if name == "multi" || name == "grid" {
			loaders["lazy"] = func(b []byte) (DistanceIndex, error) {
				idx, _, err := LoadBytesOpts(append([]byte(nil), b...), nil, LoadOptions{MemBudget: 1})
				return idx, err
			}
		}
		for how, load := range loaders {
			idx, err := load(blob)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, how, err)
			}
			assertServedForm(t, name+"/"+how, idx)
			check(name+"/"+how, idx)

			upgraded := encodeIndex(t, idx)
			if how == "lazy" && name != "grid" {
				// Lazy members re-emit their retained bytes verbatim.
				if !bytes.Equal(upgraded, blob) {
					t.Fatalf("%s/%s: lazy re-encode not byte-identical", name, how)
				}
				continue
			}
			// The re-encoding is the current layout and answers the same.
			if bytes.Equal(upgraded, blob) {
				t.Fatalf("%s/%s: re-encoding kept the legacy layout", name, how)
			}
			again, err := LoadBytes(upgraded, nil)
			if err != nil {
				t.Fatalf("%s/%s: loading the re-encoding: %v", name, how, err)
			}
			check(name+"/"+how+"/re-encoded", again)
			if !bytes.Equal(upgraded, encodeIndex(t, again)) {
				t.Fatalf("%s/%s: the re-encoding does not round-trip byte-identically", name, how)
			}
			if name == "grid" {
				onlyAddsHierarchy(t, name+"/"+how, blob, upgraded)
			}
		}
	}
}

// assertServedForm checks a loaded legacy fixture came back as the current
// types: no SE oracle reports the se kind any more.
func assertServedForm(t *testing.T, label string, idx DistanceIndex) {
	t.Helper()
	switch v := idx.(type) {
	case *Oracle:
		if k := v.Stats().Kind; k != KindFlat {
			t.Fatalf("%s: oracle reports kind %s, want flat", label, k)
		}
	case *SiteOracle, *DynamicOracle:
	case *ShardedIndex:
		for _, m := range v.Members() {
			if k := m.Index.Stats().Kind; k == KindSE {
				t.Fatalf("%s: member %q reports kind se", label, m.Name)
			}
		}
	default:
		t.Fatalf("%s: loaded as %T", label, idx)
	}
}

func checkLegacyAnswers(t *testing.T, label string, idx DistanceIndex, want []legacyAnswer) {
	t.Helper()
	got := legacyAnswers(t, idx)
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, pinned %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: answer %d is %+v, pinned %+v", label, i, got[i], want[i])
		}
	}
}

// checkGridAnswers checks the grid fixture's pinned member answers through
// the global id space: for every pinned member-local pair, MemberOf of the
// pair's global ids names that member and pair, and Query and QueryPath on
// the global ids answer bit-identically.
func checkGridAnswers(t *testing.T, label string, sh *ShardedIndex, pinned map[string][]legacyAnswer) {
	t.Helper()
	for _, m := range sh.Members() {
		want := pinned["grid/"+m.Name]
		if len(want) == 0 {
			t.Fatalf("%s: no pinned answers for member %s", label, m.Name)
		}
		for i, a := range want {
			var g [2]int32
			for j, local := range [2]int32{a.S, a.T} {
				var ok bool
				if g[j], ok = sh.GlobalID(m.Name, local); !ok {
					t.Fatalf("%s: %s local id %d has no global id", label, m.Name, local)
				}
				if name, back, ok := sh.MemberOf(g[j]); !ok || name != m.Name || back != local {
					t.Fatalf("%s: MemberOf(%d) = %s/%d, want %s/%d", label, g[j], name, back, m.Name, local)
				}
			}
			d, err := sh.Query(g[0], g[1])
			if err != nil {
				t.Fatalf("%s: Query(%d,%d): %v", label, g[0], g[1], err)
			}
			path, plen, err := sh.QueryPath(g[0], g[1])
			if err != nil {
				t.Fatalf("%s: QueryPath(%d,%d): %v", label, g[0], g[1], err)
			}
			got := legacyAnswer{S: a.S, T: a.T, Query: math.Float64bits(d),
				PathLen: math.Float64bits(plen), PathPts: len(path), PathHash: pathDigest(path)}
			if got != a {
				t.Fatalf("%s: %s answer %d is %+v, pinned %+v", label, m.Name, i, got, a)
			}
		}
	}
}

// onlyAddsHierarchy checks that re-encoding a container written without a
// hierarchy section adds exactly that section: every other section is
// byte-identical.
func onlyAddsHierarchy(t *testing.T, label string, old, upgraded []byte) {
	t.Helper()
	_, before, err := sliceContainer(old)
	if err != nil {
		t.Fatal(err)
	}
	_, after, err := sliceContainer(upgraded)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := before[secHierarchy]; ok {
		t.Fatalf("%s: the fixture already carries a hierarchy section", label)
	}
	if _, ok := after[secHierarchy]; !ok || len(after) != len(before)+1 {
		t.Fatalf("%s: re-encoding holds %d sections, want the fixture's %d plus a hierarchy section", label, len(after), len(before))
	}
	for id, payload := range before {
		if !bytes.Equal(payload, after[id]) {
			t.Fatalf("%s: re-encoding changed section %d", label, id)
		}
	}
}

// TestLegacyGridDamageIsFatal: without a hierarchy section the member bodies
// define the global id space, so a member body that fails to decode fails a
// tolerant load — eager, stream or lazy — instead of being quarantined.
func TestLegacyGridDamageIsFatal(t *testing.T) {
	data := readLegacyFixture(t, "grid")
	_, secs, err := sliceContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	victim := secs[secMemberBase+1]
	victim[len(victim)/2] ^= 0xff
	if _, q, err := LoadBytesDegraded(data, nil); err == nil || len(q) != 0 {
		t.Errorf("LoadBytesDegraded: err %v, %d quarantined; want a load failure", err, len(q))
	}
	if _, q, err := LoadDegraded(bytes.NewReader(data)); err == nil || len(q) != 0 {
		t.Errorf("LoadDegraded: err %v, %d quarantined; want a load failure", err, len(q))
	}
	if _, q, err := LoadBytesOpts(data, nil, LoadOptions{Tolerant: true, MemBudget: 1}); err == nil || len(q) != 0 {
		t.Errorf("lazy tolerant load: err %v, %d quarantined; want a load failure", err, len(q))
	}
}
