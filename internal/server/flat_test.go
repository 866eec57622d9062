package server

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"seoracle/internal/core"
)

// flat_test.go — serving the flat oracle image: an index loaded from an
// mmap answers through the whole HTTP surface unchanged, and /statsz
// reports the heap-vs-mapped memory split the layout exists for.

// writeFlatFile writes idx — whose SE oracles are flat images — to a temp
// container file, returning the path and idx.
func writeFlatFile(t *testing.T, idx core.DistanceIndex) (string, core.DistanceIndex) {
	t.Helper()
	flat := idx
	path := filepath.Join(t.TempDir(), "flat.sedx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.EncodeTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, flat
}

func TestServeFlatFromMmap(t *testing.T) {
	o := seOracle(t)
	path, _ := writeFlatFile(t, o)

	for _, useMmap := range []bool{false, true} {
		idx, err := LoadIndexFile(path, useMmap)
		if err != nil {
			t.Fatalf("mmap=%v: %v", useMmap, err)
		}
		if idx.Stats().Kind != core.KindFlat {
			t.Fatalf("mmap=%v: kind %s, want flat", useMmap, idx.Stats().Kind)
		}
		if core.MappedBytesOf(idx) <= 0 {
			t.Fatalf("mmap=%v: flat index reports no mapped bytes", useMmap)
		}

		ts := httptest.NewServer(New(idx).Handler())
		want, err := o.Query(1, 5)
		if err != nil {
			t.Fatal(err)
		}
		var qr struct {
			Distance float64 `json:"distance"`
			Kind     string  `json:"kind"`
		}
		if code := get(t, ts, "/v1/query?s=1&t=5", &qr); code != 200 {
			t.Fatalf("mmap=%v: query = %d", useMmap, code)
		}
		if qr.Distance != want || qr.Kind != "flat" {
			t.Fatalf("mmap=%v: got %+v, want distance %g kind flat", useMmap, qr, want)
		}
		var st struct {
			Index struct {
				Kind        string `json:"kind"`
				MemoryBytes int64  `json:"memory_bytes"`
				MappedBytes int64  `json:"mapped_bytes"`
			} `json:"index"`
			Memory struct {
				HeapBytes   int64 `json:"heap_bytes"`
				MappedBytes int64 `json:"mapped_bytes"`
			} `json:"memory"`
		}
		if code := get(t, ts, "/statsz", &st); code != 200 {
			t.Fatalf("mmap=%v: statsz = %d", useMmap, code)
		}
		if st.Index.MappedBytes <= 0 || st.Memory.MappedBytes != st.Index.MappedBytes {
			t.Errorf("mmap=%v: statsz mapped bytes %d / memory block %d, want a positive match",
				useMmap, st.Index.MappedBytes, st.Memory.MappedBytes)
		}
		// Before any cold slab decodes, the heap side is a few hundred bytes
		// of struct — the whole index weight sits in the mapping.
		if st.Memory.HeapBytes <= 0 || st.Memory.HeapBytes >= st.Memory.MappedBytes {
			t.Errorf("mmap=%v: heap %d not below mapped %d — the flat split is the point",
				useMmap, st.Memory.HeapBytes, st.Memory.MappedBytes)
		}

		// The nearest and path surfaces ride the lazily decoded cold slabs;
		// afterwards the heap side must have grown, the mapped side not.
		var nr struct {
			ID int64 `json:"id"`
		}
		if code := get(t, ts, "/v1/nearest?x=3&y=4", &nr); code != 200 {
			t.Fatalf("mmap=%v: nearest = %d", useMmap, code)
		}
		var pr struct {
			Length float64 `json:"length"`
		}
		if code := get(t, ts, "/v1/path?s=1&t=5", &pr); code != 200 {
			t.Fatalf("mmap=%v: path = %d", useMmap, code)
		}
		heapBefore := st.Memory.HeapBytes
		if code := get(t, ts, "/statsz", &st); code != 200 {
			t.Fatalf("mmap=%v: statsz = %d", useMmap, code)
		}
		if st.Memory.HeapBytes <= heapBefore {
			t.Errorf("mmap=%v: heap %d did not grow past %d after cold-slab decodes",
				useMmap, st.Memory.HeapBytes, heapBefore)
		}
		if st.Memory.MappedBytes != st.Index.MappedBytes {
			t.Errorf("mmap=%v: mapped bytes changed to %d", useMmap, st.Memory.MappedBytes)
		}
		ts.Close()
	}
}

func TestStatszMemorySplitPerMember(t *testing.T) {
	m, pois, eng := testWorld(t)
	sh, err := core.BuildShardedLOD(eng, m, pois, 4, core.LODOptions{Options: core.Options{Epsilon: 0.25, Seed: 81}})
	if err != nil {
		t.Fatal(err)
	}
	path, _ := writeFlatFile(t, sh)
	idx, err := LoadIndexFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(idx).Handler())
	defer ts.Close()

	var st struct {
		Memory struct {
			HeapBytes   int64 `json:"heap_bytes"`
			MappedBytes int64 `json:"mapped_bytes"`
		} `json:"memory"`
		Indexes map[string]struct {
			Stats struct {
				Kind        string `json:"kind"`
				MemoryBytes int64  `json:"memory_bytes"`
				MappedBytes int64  `json:"mapped_bytes"`
			} `json:"stats"`
		} `json:"indexes"`
	}
	if code := get(t, ts, "/statsz", &st); code != 200 {
		t.Fatalf("statsz = %d", code)
	}
	if len(st.Indexes) < 2 {
		t.Fatalf("statsz reports %d members, want the shard fan-out", len(st.Indexes))
	}
	var sum int64
	for name, m := range st.Indexes {
		if m.Stats.Kind != "flat" {
			t.Errorf("member %q kind %s, want flat", name, m.Stats.Kind)
		}
		if m.Stats.MappedBytes <= 0 {
			t.Errorf("member %q reports no mapped bytes", name)
		}
		sum += m.Stats.MappedBytes
	}
	if st.Memory.MappedBytes != sum {
		t.Errorf("top-level mapped %d != member sum %d", st.Memory.MappedBytes, sum)
	}
}
