package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"seoracle/internal/gen"
	"seoracle/internal/geodesic"
)

// samebytes_test.go — byte-for-byte pins of builds that index no POI sites:
// three seeded SE oracles (Build + EncodeTo), one standalone site oracle
// (BuildSiteOracle + EncodeTo), and the fine members of a 2-level
// WriteSharded container. testdata/samebytes.sha256 holds their SHA-256
// digests. A construction speed-up that must not change the output (for
// example pruning the targets of a radius-bounded SSAD) is checked here;
// a change that means to alter the bytes updates the file, with the new
// lines this test prints on mismatch.

// sameBytesDigests builds every pinned artifact and returns name → digest.
func sameBytesDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	sum := func(name string, b []byte) {
		h := sha256.Sum256(b)
		out[name] = hex.EncodeToString(h[:])
	}
	for i, c := range []struct {
		nx, npoi int
		seed     int64
		sel      Selection
	}{
		{9, 12, 301, SelectRandom},
		{11, 18, 302, SelectGreedy},
		{9, 24, 303, SelectRandom},
	} {
		m, err := gen.Fractal(gen.FractalSpec{NX: c.nx, NY: c.nx, CellDX: 10, Amp: 25, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		pois, err := gen.UniformPOIs(m, c.npoi, c.seed+1)
		if err != nil {
			t.Fatal(err)
		}
		o, err := Build(geodesic.NewExact(m), gen.Dedup(pois, 1e-9), Options{Epsilon: 0.25, Seed: c.seed, Selection: c.sel})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := o.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		sum(fmt.Sprintf("se-%d", i), buf.Bytes())
	}

	m, err := gen.Fractal(gen.FractalSpec{NX: 7, NY: 7, CellDX: 10, Amp: 25, Seed: 304})
	if err != nil {
		t.Fatal(err)
	}
	so, err := BuildSiteOracle(geodesic.NewExact(m), m, SiteOptions{Options: Options{Epsilon: 0.3, Seed: 304}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := so.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum("a2a", buf.Bytes())

	m, err = gen.Fractal(gen.FractalSpec{NX: 9, NY: 9, CellDX: 10, Amp: 25, Seed: 305})
	if err != nil {
		t.Fatal(err)
	}
	pois, err := gen.UniformPOIs(m, 16, 306)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	opt := LODOptions{Options: Options{Epsilon: 0.3, Seed: 305}, Levels: 2, PortalsPerEdge: 3, SitesPerEdge: 1}
	ws, err := WriteSharded(&buf, geodesic.NewExact(m), m, gen.Dedup(pois, 1e-9), 4, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	_, secs, err := sliceContainer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ws.FineTiles; i++ {
		sum(fmt.Sprintf("tile-%d", i), secs[secMemberBase+uint32(i)])
	}
	return out
}

func TestSameBytesWithoutPOISites(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "samebytes.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := sameBytesDigests(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var diff strings.Builder
	for _, name := range names {
		if want[name] != got[name] {
			fmt.Fprintf(&diff, "%s %s\n", name, got[name])
		}
	}
	if len(want) != len(got) || diff.Len() > 0 {
		t.Fatalf("build bytes moved (pinned %d digests, built %d); the changed lines are:\n%s", len(want), len(got), diff.String())
	}
}
