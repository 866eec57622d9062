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

// legacy_test.go — containers written in the decoded se layout, which
// nothing writes any more, must keep loading and answering exactly as the
// code that wrote them did. testdata/legacy holds one container of each
// affected shape — an se container, an a2a and a dynamic container with a
// decoded inner body, and a hierarchical multi of se tiles (plus a coarse
// a2a member) — and answers.json pins their Query and QueryPath answers as
// Float64bits, recorded by the writing code.

// legacyFixtures names the committed fixtures (testdata/legacy/<name>.sedx).
var legacyFixtures = []string{"se", "a2a", "dynamic", "multi"}

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
// pinned answers; so does its eager re-encoding in the current layout,
// which is what seconvert writes.
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
		want := pinned[name]
		if len(want) == 0 {
			t.Fatalf("%s: no pinned answers", name)
		}
		loaders := map[string]func([]byte) (DistanceIndex, error){
			"Load": func(b []byte) (DistanceIndex, error) { return Load(bytes.NewReader(b)) },
			"LoadBytes": func(b []byte) (DistanceIndex, error) {
				return LoadBytes(append([]byte(nil), b...), nil)
			},
		}
		if name == "multi" {
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
			checkLegacyAnswers(t, name+"/"+how, idx, want)

			upgraded := encodeIndex(t, idx)
			if how == "lazy" {
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
			checkLegacyAnswers(t, name+"/"+how+"/re-encoded", again, want)
			if !bytes.Equal(upgraded, encodeIndex(t, again)) {
				t.Fatalf("%s/%s: the re-encoding does not round-trip byte-identically", name, how)
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
