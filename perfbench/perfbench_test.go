package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// tiny shrinks a workload's world and streams so a self-test builds in well
// under a second, keeping its traffic mix and serving configuration.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.world.grid, w.world.npoi = 9, 12
	if w.world.tiles > 0 {
		w.world.portalsPerEdge = 4
	}
	w.streamLen, w.warmup = 512, 64
	return w
}

func TestGenerateDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(w, 7), generate(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations with seed 7 differ", w.name)
		}
		if c := generate(w, 8); reflect.DeepEqual(a.streams, c.streams) {
			t.Errorf("%s: seeds 7 and 8 generate the same streams", w.name)
		}
	}
}

func TestGenerateMix(t *testing.T) {
	w, _ := findWorkload("bulk-mix")
	var count [numOps]int
	tr := generate(w, 1)
	total := 0
	for _, s := range tr.streams {
		for _, q := range s {
			count[q.op]++
			total++
		}
	}
	for o := op(0); o < numOps; o++ {
		if got := float64(count[o]) / float64(total); got < w.mix[o]-0.02 || got > w.mix[o]+0.02 {
			t.Errorf("%s share %.3f, want %.2f", opNames[o], got, w.mix[o])
		}
	}
}

// corruptOne rewrites the distance of the n-th /v1/query answer.
func corruptOne(n int64) func(http.Handler) http.Handler {
	var seen atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/query" || seen.Add(1) != n {
				next.ServeHTTP(w, r)
				return
			}
			var rec recorder
			rec.reset()
			next.ServeHTTP(&rec, r)
			body := bytes.Replace(rec.body.Bytes(), []byte(`"distance":`), []byte(`"distance":1`), 1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.status)
			w.Write(body)
		})
	}
}

func TestWrongAnswerCounted(t *testing.T) {
	w := tiny(t, "poi-query")
	tr := generate(w, 1)
	for _, tc := range []struct {
		name string
		wrap func(http.Handler) http.Handler
		bad  bool
	}{{"clean", nil, false}, {"one corrupted answer", corruptOne(int64(w.warmup) + 10), true}} {
		t.Run(tc.name, func(t *testing.T) {
			in, err := setup(w, filepath.Join(t.TempDir(), "c.sedx"), tr.streams, tc.wrap)
			if err != nil {
				t.Fatal(err)
			}
			defer in.close()
			answers, err := expect(in, tr)
			if err != nil {
				t.Fatal(err)
			}
			ph := in.runPhase(tr, answers, 200*time.Millisecond, false)
			failedShare := float64(ph.failed) / float64(ph.attempted)
			if tc.bad && failedShare == 0 {
				t.Fatalf("a corrupted answer went unnoticed over %d requests", ph.attempted)
			}
			if !tc.bad && failedShare != 0 {
				t.Fatalf("failed share %g on a clean server: %v", failedShare, ph.firstErr)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON runs both kinds of run on tiny worlds and
// checks that they print exactly the metrics BENCHMARK.json declares, with
// the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench has %v", names, ours)
	}
	want := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, e := range list {
			m[e.Name] = e.Unit
		}
		return m
	}
	got := func(r result) map[string]string {
		m := map[string]string{}
		for k, v := range r.Metrics {
			m[k] = v.Unit
		}
		return m
	}
	for _, name := range []string{"poi-query", "tiled-lod"} {
		w := tiny(t, name)
		e2e, err := endToEnd(w, 1, 200*time.Millisecond, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !e2e.Correct || !reflect.DeepEqual(got(e2e), want(spec.EndToEnd)) {
			t.Errorf("%s end-to-end run: correct=%v metrics %v, BENCHMARK.json declares %v",
				name, e2e.Correct, keys(got(e2e)), keys(want(spec.EndToEnd)))
		}
		layers, err := tracedRun(w, 1, 400*time.Millisecond, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !layers.Correct || !reflect.DeepEqual(got(layers), want(spec.PerLayer)) {
			t.Errorf("%s traced run: correct=%v metrics %v, BENCHMARK.json declares %v",
				name, layers.Correct, keys(got(layers)), keys(want(spec.PerLayer)))
		}
	}
}

func keys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
