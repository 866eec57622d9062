package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"seoracle/internal/terrain"
)

// flat_test.go — the build-vs-load parity suite: an index loaded back from
// its container, streamed through Load or mapped through LoadBytes, must
// answer every query surface bit-for-bit like the index that was built,
// round-trip byte-identically through encode → load, reject structural
// damage at load, and degrade member-wise inside a multi container.

// loadBoth encodes idx and loads the container back through both loaders.
func loadBoth(t *testing.T, idx DistanceIndex) ([]byte, map[string]DistanceIndex) {
	t.Helper()
	blob := encodeIndex(t, idx)
	streamed, err := Load(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	mapped, err := LoadBytes(blob, nil)
	if err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	return blob, map[string]DistanceIndex{"Load": streamed, "LoadBytes": mapped}
}

// flatTrio builds an oracle over one world and loads it back both ways.
func flatTrio(t *testing.T, nx, npoi int, seed int64) (*testWorld, *Oracle, map[string]*Oracle) {
	t.Helper()
	w := newTestWorld(t, nx, npoi, seed)
	o := w.build(t, Options{Epsilon: 0.25, Seed: seed + 1})
	_, loaded := loadBoth(t, o)
	out := make(map[string]*Oracle, len(loaded))
	for name, idx := range loaded {
		lo, ok := idx.(*Oracle)
		if !ok {
			t.Fatalf("%s returned %T, want *Oracle", name, idx)
		}
		out[name] = lo
	}
	return w, o, out
}

// samePath reports whether two path answers agree bit for bit.
func samePath(wp, gp []terrain.SurfacePoint, wl, gl float64) bool {
	if math.Float64bits(wl) != math.Float64bits(gl) || len(wp) != len(gp) {
		return false
	}
	for i := range wp {
		if wp[i] != gp[i] {
			return false
		}
	}
	return true
}

// assertParity checks every query surface idx and got share — Query,
// QueryBatch, QueryMatrix, QueryPath, Nearest and NearestK — over the
// given endpoint ids, requiring Float64bits-identical answers (and errors
// in the same places).
func assertParity(t *testing.T, label string, want, got DistanceIndex, ids []int32) {
	t.Helper()
	step := len(ids)/12 + 1
	var pairs [][2]int32
	for i := 0; i < len(ids); i += step {
		for j := len(ids) - 1; j >= 0; j -= step {
			pairs = append(pairs, [2]int32{ids[i], ids[j]})
		}
	}
	for _, p := range pairs {
		wd, err1 := want.Query(p[0], p[1])
		gd, err2 := got.Query(p[0], p[1])
		if (err1 != nil) != (err2 != nil) || math.Float64bits(wd) != math.Float64bits(gd) {
			t.Fatalf("%s Query(%d,%d): built (%v, %v), loaded (%v, %v)", label, p[0], p[1], wd, err1, gd, err2)
		}
	}
	wb, err1 := want.QueryBatch(pairs, nil)
	gb, err2 := got.QueryBatch(pairs, nil)
	if (err1 != nil) != (err2 != nil) || len(wb) != len(gb) {
		t.Fatalf("%s QueryBatch: built (%d, %v), loaded (%d, %v)", label, len(wb), err1, len(gb), err2)
	}
	for i := range wb {
		if math.Float64bits(wb[i]) != math.Float64bits(gb[i]) {
			t.Fatalf("%s QueryBatch pair %d: built %v, loaded %v", label, i, wb[i], gb[i])
		}
	}
	if wm, ok := want.(MatrixIndex); ok {
		sources := ids[:min(4, len(ids))]
		targets := ids[max(0, len(ids)-3):]
		wv, err1 := wm.QueryMatrix(sources, targets, nil)
		gv, err2 := got.(MatrixIndex).QueryMatrix(sources, targets, nil)
		if (err1 != nil) != (err2 != nil) || len(wv) != len(gv) {
			t.Fatalf("%s QueryMatrix: built (%d, %v), loaded (%d, %v)", label, len(wv), err1, len(gv), err2)
		}
		for i := range wv {
			if math.Float64bits(wv[i]) != math.Float64bits(gv[i]) {
				t.Fatalf("%s QueryMatrix cell %d: built %v, loaded %v", label, i, wv[i], gv[i])
			}
		}
	}
	if wp, ok := want.(PathIndex); ok {
		for k, p := range pairs {
			if k%3 != 0 {
				continue
			}
			wpath, wl, err1 := wp.QueryPath(p[0], p[1])
			gpath, gl, err2 := got.(PathIndex).QueryPath(p[0], p[1])
			if (err1 != nil) != (err2 != nil) || !samePath(wpath, gpath, wl, gl) {
				t.Fatalf("%s QueryPath(%d,%d): built (%d pts, %v, %v), loaded (%d pts, %v, %v)",
					label, p[0], p[1], len(wpath), wl, err1, len(gpath), gl, err2)
			}
		}
	}
	probes := [][2]float64{{0, 0}, {35, 20}, {12.5, 60}, {-5, -5}}
	if wn, ok := want.(NearestFinder); ok {
		for _, pr := range probes {
			wid, wat, wd, err1 := wn.Nearest(pr[0], pr[1])
			gid, gat, gd, err2 := got.(NearestFinder).Nearest(pr[0], pr[1])
			if (err1 != nil) != (err2 != nil) || wid != gid || wat != gat || math.Float64bits(wd) != math.Float64bits(gd) {
				t.Fatalf("%s Nearest(%v): built (%d,%v,%v,%v), loaded (%d,%v,%v,%v)", label, pr, wid, wat, wd, err1, gid, gat, gd, err2)
			}
		}
	}
	if wk, ok := want.(NearestKFinder); ok {
		for _, pr := range probes {
			wn, err1 := wk.NearestK(pr[0], pr[1], 5)
			gn, err2 := got.(NearestKFinder).NearestK(pr[0], pr[1], 5)
			if (err1 != nil) != (err2 != nil) || len(wn) != len(gn) {
				t.Fatalf("%s NearestK(%v): built (%d, %v), loaded (%d, %v)", label, pr, len(wn), err1, len(gn), err2)
			}
			for i := range wn {
				if wn[i] != gn[i] {
					t.Fatalf("%s NearestK(%v)[%d]: built %+v, loaded %+v", label, pr, i, wn[i], gn[i])
				}
			}
		}
	}
}

// idRange returns the ids 0..n-1.
func idRange(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

func TestFlatQueryParity(t *testing.T) {
	_, o, loaded := flatTrio(t, 11, 24, 9001)
	n := int32(o.npoi)
	for name, f := range loaded {
		for s := int32(0); s < n; s++ {
			for u := int32(0); u < n; u++ {
				want, err1 := o.Query(s, u)
				got, err2 := f.Query(s, u)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s Query(%d,%d): built err %v, loaded err %v", name, s, u, err1, err2)
				}
				if math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("%s Query(%d,%d): built %v, loaded %v (not byte-identical)", name, s, u, want, got)
				}
			}
		}
		if _, err := f.Query(-1, 0); err == nil {
			t.Errorf("%s: Query accepted a negative id", name)
		}
		if _, err := f.Query(0, n); err == nil {
			t.Errorf("%s: Query accepted an out-of-range id", name)
		}
	}
}

// TestQueryMatchesNaive: the O(h) scan and the paper's A_s × A_t product
// scan (SE-Naive) agree bit for bit on every pair, across seeds and ε.
func TestQueryMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		w := newTestWorld(t, 9, 14+int(seed)*3, 9050+seed)
		o := w.build(t, Options{Epsilon: []float64{0.1, 0.25, 0.5}[seed%3], Selection: Selection(seed % 2), Seed: seed})
		n := int32(o.NumPOIs())
		for s := int32(0); s < n; s++ {
			for u := int32(0); u < n; u++ {
				a, err1 := o.Query(s, u)
				b, err2 := o.QueryNaive(s, u)
				if err1 != nil || err2 != nil || math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d (%d,%d): Query (%v, %v), QueryNaive (%v, %v)", seed, s, u, a, err1, b, err2)
				}
			}
		}
	}
}

func TestFlatBatchAndMatrixParity(t *testing.T) {
	_, o, loaded := flatTrio(t, 9, 16, 9100)
	for name, f := range loaded {
		assertParity(t, name, o, f, idRange(o.npoi))
	}
}

func TestFlatPathParity(t *testing.T) {
	_, o, loaded := flatTrio(t, 9, 14, 9200)
	n := int32(o.npoi)
	for name, f := range loaded {
		for _, pair := range [][2]int32{{0, n - 1}, {1, n / 2}, {n - 1, 0}, {2, 2}} {
			wp, wl, err1 := o.QueryPath(pair[0], pair[1])
			gp, gl, err2 := f.QueryPath(pair[0], pair[1])
			if err1 != nil || err2 != nil {
				t.Fatalf("%s QueryPath(%d,%d): built err %v, loaded err %v", name, pair[0], pair[1], err1, err2)
			}
			if !samePath(wp, gp, wl, gl) {
				t.Fatalf("%s QueryPath(%d,%d): built (%d pts, %v), loaded (%d pts, %v)",
					name, pair[0], pair[1], len(wp), wl, len(gp), gl)
			}
		}
	}
}

func TestFlatNearestParity(t *testing.T) {
	w, o, loaded := flatTrio(t, 9, 16, 9300)
	for name, f := range loaded {
		assertParity(t, name, o, f, idRange(o.npoi))
		// Reachability rides the same point table.
		d := w.exact[0][len(w.pois)-1]
		wr, err1 := o.Reachable(0, d)
		gr, err2 := f.Reachable(0, d)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s Reachable: built err %v, loaded err %v", name, err1, err2)
		}
		if len(wr) != len(gr) {
			t.Fatalf("%s Reachable: built %d hits, loaded %d", name, len(wr), len(gr))
		}
		for i := range wr {
			if wr[i] != gr[i] {
				t.Fatalf("%s Reachable[%d]: built %+v, loaded %+v", name, i, wr[i], gr[i])
			}
		}
	}
}

// TestBuildLoadParityAllKinds: every index kind answers identically after
// Load and LoadBytes — the a2a and dynamic wrappers (whose inner oracle
// travels as an image section) and a hierarchical multi of SE tiles with a
// coarse a2a member.
func TestBuildLoadParityAllKinds(t *testing.T) {
	w := newTestWorld(t, 9, 16, 9350)
	so, err := BuildSiteOracle(w.eng, w.mesh, SiteOptions{Options: Options{Epsilon: 0.4, Seed: 9351}, SitesPerEdge: 1})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamicOracle(w.eng, w.mesh, w.pois, Options{Epsilon: 0.25, Seed: 9352})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dyn.Insert(w.mesh.FacePoint(5, 0.3, 0.3, 0.4)); err != nil {
		t.Fatal(err)
	}
	if err := dyn.Delete(3); err != nil {
		t.Fatal(err)
	}
	lod := buildLOD(t, w, 4, LODOptions{Options: Options{Epsilon: 0.3, Seed: 9353}, Levels: 2, PortalsPerEdge: 3, SitesPerEdge: 1})
	for _, tc := range []struct {
		name string
		idx  DistanceIndex
		ids  []int32
	}{
		{"a2a", so, idRange(so.NumSites())},
		{"dynamic", dyn, dyn.LiveIDs()},
		{"multi", lod, idRange(lod.NumGlobalIDs())},
	} {
		blob, loaded := loadBoth(t, tc.idx)
		for how, got := range loaded {
			assertParity(t, tc.name+"/"+how, tc.idx, got, tc.ids)
			if !bytes.Equal(blob, encodeIndex(t, got)) {
				t.Errorf("%s/%s: load → re-encode not byte-identical", tc.name, how)
			}
		}
	}
}

func TestFlatStatsAndInvariants(t *testing.T) {
	_, o, loaded := flatTrio(t, 9, 16, 9400)
	bs := o.Stats()
	if bs.Kind != KindFlat {
		t.Errorf("built Stats kind %s, want flat", bs.Kind)
	}
	if bs.Build.Pairs != bs.Pairs || bs.Build.SSADCalls == 0 {
		t.Errorf("built Stats carries build record %+v for %d pairs", bs.Build, bs.Pairs)
	}
	for name, f := range loaded {
		fs := f.Stats()
		if fs.Kind != KindFlat {
			t.Errorf("%s Stats kind %s, want flat", name, fs.Kind)
		}
		if fs.Points != bs.Points || fs.Height != bs.Height || fs.Pairs != bs.Pairs || fs.Epsilon != bs.Epsilon {
			t.Errorf("%s Stats %+v disagrees with built %+v", name, fs, bs)
		}
		if fs.MappedBytes <= 0 || fs.MappedBytes != bs.MappedBytes {
			t.Errorf("%s MappedBytes %d, want the built image size %d", name, fs.MappedBytes, bs.MappedBytes)
		}
		if fs.Build != (BuildStats{}) {
			t.Errorf("%s Stats reports a build record %+v; loads have none", name, fs.Build)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Errorf("%s CheckInvariants: %v", name, err)
		}
		// The cold-slab decode grows the heap side.
		before := f.MemoryBytes()
		if _, err := f.Points(); err != nil {
			t.Fatal(err)
		}
		if after := f.MemoryBytes(); after <= before {
			t.Errorf("%s MemoryBytes %d → %d after point decode; want growth", name, before, after)
		}
	}
	if err := o.CheckInvariants(); err != nil {
		t.Errorf("built CheckInvariants: %v", err)
	}
	if o.SizeBytes() <= 0 || o.SizeBytes() >= o.MappedBytes() {
		t.Errorf("SizeBytes %d should be positive and exclude the embedded mesh (image %d)", o.SizeBytes(), o.MappedBytes())
	}
}

func TestFlatEncodeLoadRoundTrip(t *testing.T) {
	_, o, loaded := flatTrio(t, 9, 16, 9500)
	direct := encodeIndex(t, o)
	for name, lf := range loaded {
		d1, err := lf.Query(0, int32(o.npoi-1))
		if err != nil {
			t.Fatalf("%s Query: %v", name, err)
		}
		d2, _ := o.Query(0, int32(o.npoi-1))
		if math.Float64bits(d1) != math.Float64bits(d2) {
			t.Fatalf("%s: loaded answers %v, built %v", name, d1, d2)
		}
		if !bytes.Equal(direct, encodeIndex(t, lf)) {
			t.Fatalf("%s: load → re-encode not byte-identical", name)
		}
	}
}

// reflatten patches bytes inside the flat body of an encoded flat container
// and recomputes the header CRC, so structural-validation tests exercise
// the checks behind it (the body starts at envelope offset 24).
func reflatten(t *testing.T, blob []byte, mutate func(body []byte)) []byte {
	t.Helper()
	out := append([]byte(nil), blob...)
	body := out[24 : len(out)-4]
	mutate(body)
	nSlabs := int(binary.LittleEndian.Uint32(body[flatHeaderOff+40:]))
	dirEnd := flatDirOff + nSlabs*flatDirEntryLen
	binary.LittleEndian.PutUint32(body[8:], crc32.ChecksumIEEE(body[flatHeaderOff:dirEnd]))
	return out
}

func TestFlatLoadBytesRejectsStructuralDamage(t *testing.T) {
	w := newTestWorld(t, 9, 12, 9600)
	blob := encodeIndex(t, w.build(t, Options{Epsilon: 0.25, Seed: 9601}))
	if _, err := LoadBytes(blob, nil); err != nil {
		t.Fatalf("pristine container rejected: %v", err)
	}

	cases := []struct {
		name   string
		damage func() []byte
		want   string
	}{
		{"header bit flip without re-CRC", func() []byte {
			out := append([]byte(nil), blob...)
			out[24+flatHeaderOff+8] ^= 0x01 // npoi
			return out
		}, "CRC mismatch"},
		{"misaligned slab offset", func() []byte {
			return reflatten(t, blob, func(body []byte) {
				ent := body[flatDirOff:]
				off := binary.LittleEndian.Uint64(ent[8:])
				binary.LittleEndian.PutUint64(ent[8:], off+1)
			})
		}, "misaligned"},
		{"overlapping slabs", func() []byte {
			return reflatten(t, blob, func(body []byte) {
				first := binary.LittleEndian.Uint64(body[flatDirOff+8:])
				second := body[flatDirOff+flatDirEntryLen:]
				binary.LittleEndian.PutUint64(second[8:], first)
			})
		}, "overlaps"},
		{"slab beyond the body", func() []byte {
			return reflatten(t, blob, func(body []byte) {
				ent := body[flatDirOff:]
				binary.LittleEndian.PutUint64(ent[8:], uint64(len(body)+8)&^7)
			})
		}, "exceeds"},
		{"unknown slab id", func() []byte {
			return reflatten(t, blob, func(body []byte) {
				binary.LittleEndian.PutUint32(body[flatDirOff:], 99)
			})
		}, "unknown flat slab"},
		{"wrong slab length", func() []byte {
			return reflatten(t, blob, func(body []byte) {
				ent := body[flatDirOff:]
				length := binary.LittleEndian.Uint64(ent[16:])
				binary.LittleEndian.PutUint64(ent[16:], length+8)
			})
		}, "header implies"},
		{"hash shape mismatch", func() []byte {
			return reflatten(t, blob, func(body []byte) {
				n := binary.LittleEndian.Uint32(body[flatHeaderOff+28:])
				binary.LittleEndian.PutUint32(body[flatHeaderOff+28:], n+1)
			})
		}, "hash shape"},
		{"truncated image", func() []byte {
			out := append([]byte(nil), blob[:24+40]...)
			return out
		}, "exceeds"},
	}
	for _, tc := range cases {
		if _, err := LoadBytes(tc.damage(), nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestFlatCorruptSlabContentErrorsNotFaults(t *testing.T) {
	w := newTestWorld(t, 9, 12, 9700)
	// Point a paths-slab entry at a node id far past nNodes: slab content is
	// not CRC-covered on the byte path, so the damage must surface as a
	// query error, never a fault.
	blob := reflatten(t, encodeIndex(t, w.build(t, Options{Epsilon: 0.25, Seed: 9701})), func(body []byte) {
		off := binary.LittleEndian.Uint64(body[flatDirOff+flatDirEntryLen+8:]) // paths slab
		binary.LittleEndian.PutUint32(body[off:], 0xFFFFFFF0)
	})
	idx, err := LoadBytes(blob, nil)
	if err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	f := idx.(*Oracle)
	n := int32(f.NumPOIs())
	sawErr := false
	for s := int32(0); s < n; s++ {
		for u := int32(0); u < n; u++ {
			if _, err := f.Query(s, u); err != nil {
				sawErr = true
				if !strings.Contains(err.Error(), "corrupt") {
					t.Fatalf("Query(%d,%d): error %q does not name corruption", s, u, err)
				}
			}
		}
	}
	if !sawErr {
		t.Error("no query touched the corrupted path entry")
	}
}

func TestFlatMultiConvertAndDegraded(t *testing.T) {
	w := newTestWorld(t, 9, 16, 9800)
	sh := buildSharded(t, w, 4, Options{Epsilon: 0.25, Seed: 9801})
	// ConvertFlat is the identity on a multi: its SE members are flat.
	if conv, err := ConvertFlat(sh); err != nil || conv != DistanceIndex(sh) {
		t.Fatalf("ConvertFlat(multi) = (%v, %v), want identity", conv, err)
	}
	if sh.MappedBytes() <= 0 {
		t.Error("built multi reports no mapped bytes")
	}
	blob := encodeIndex(t, sh)

	idx, err := LoadBytes(blob, nil)
	if err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	lsh := idx.(*ShardedIndex)
	if lsh.NumMembers() != sh.NumMembers() {
		t.Fatalf("loaded %d members, want %d", lsh.NumMembers(), sh.NumMembers())
	}
	// Members answer (query and path, via the adopted shared mesh)
	// bit-identically to the built ones.
	for i, m := range lsh.Members() {
		om := sh.Members()[i]
		fm, ok := m.Index.(*Oracle)
		if !ok {
			t.Fatalf("member %q loaded as %T, want *Oracle", m.Name, m.Index)
		}
		n := int32(fm.NumPOIs())
		if n < 2 {
			continue
		}
		want, err1 := om.Index.Query(0, n-1)
		got, err2 := fm.Query(0, n-1)
		if err1 != nil || err2 != nil || math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("member %q: built (%v,%v), loaded (%v,%v)", m.Name, want, err1, got, err2)
		}
		wp, wl, err1 := om.Index.(PathIndex).QueryPath(0, n-1)
		gp, gl, err2 := fm.QueryPath(0, n-1)
		if err1 != nil || err2 != nil || !samePath(wp, gp, wl, gl) {
			t.Fatalf("member %q path: built (%d pts, %v, %v), loaded (%d pts, %v, %v)",
				m.Name, len(wp), wl, err1, len(gp), gl, err2)
		}
	}
	// Re-encode is byte-identical.
	var again bytes.Buffer
	if err := lsh.EncodeTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again.Bytes()) {
		t.Fatal("multi-of-flat load → re-encode not byte-identical")
	}

	// Damage one flat member's header: both degraded loaders quarantine it
	// and serve the rest.
	offs := sectionOffsets(t, blob)
	last := uint32(lsh.NumMembers() - 1)
	span := offs[secMemberBase+last]
	corrupt := append([]byte(nil), blob...)
	corrupt[span[0]+24+flatHeaderOff+8] ^= 0x01
	wantName := lsh.Members()[last].Name

	for _, load := range []struct {
		name string
		run  func() (DistanceIndex, []Quarantined, error)
	}{
		{"LoadDegraded", func() (DistanceIndex, []Quarantined, error) {
			return LoadDegraded(bytes.NewReader(corrupt))
		}},
		{"LoadBytesDegraded", func() (DistanceIndex, []Quarantined, error) {
			return LoadBytesDegraded(corrupt, nil)
		}},
	} {
		idx, quarantined, err := load.run()
		if err != nil {
			t.Fatalf("%s: %v", load.name, err)
		}
		if len(quarantined) != 1 || quarantined[0].Name != wantName {
			t.Fatalf("%s quarantined %+v, want exactly %q", load.name, quarantined, wantName)
		}
		if got := idx.(*ShardedIndex).NumMembers(); got != sh.NumMembers()-1 {
			t.Fatalf("%s served %d members, want %d", load.name, got, sh.NumMembers()-1)
		}
		if _, err := LoadBytes(corrupt, nil); err == nil {
			t.Fatalf("strict LoadBytes accepted the corrupt member")
		}
	}
}

func TestFlatQueryZeroAllocs(t *testing.T) {
	_, o, loaded := flatTrio(t, 9, 16, 9900)
	f := loaded["LoadBytes"]
	n := int32(o.npoi)
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := f.Query(0, n-1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("flat Query allocates %.1f objects per op, want 0", avg)
	}
	pairs := [][2]int32{{0, 1}, {1, n - 1}, {n - 1, 0}}
	dst := make([]float64, len(pairs))
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := f.QueryBatch(pairs, dst); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("flat QueryBatch allocates %.1f objects per op, want 0", avg)
	}
}

func TestConvertFlatRejectsOtherKinds(t *testing.T) {
	w := newTestWorld(t, 9, 8, 9950)
	o := w.build(t, Options{Epsilon: 0.3, Seed: 9951})
	// Every SE oracle is flat already: ConvertFlat is the identity.
	f, err := ConvertFlat(o)
	if err != nil || f != DistanceIndex(o) {
		t.Fatalf("ConvertFlat(se) = (%v, %v), want identity", f, err)
	}
	dyn, err := NewDynamicOracle(w.eng, w.mesh, w.pois, Options{Epsilon: 0.3, Seed: 9952})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConvertFlat(dyn); err == nil {
		t.Error("ConvertFlat accepted a dynamic oracle")
	}
}
