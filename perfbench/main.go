// Command perfbench is seoracle's end-to-end benchmark. One run builds a
// workload's index through the public builders, writes it to a container
// file, loads it the way seserve does, serves server.Handler() on a loopback
// listener and drives it with a closed loop of two clients, checking every
// answer against a direct library call.
//
// Usage, from the repository root (run.sh builds this command first):
//
//	bash perfbench/run.sh --workload poi-query --seed 1 --seconds 8 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
// traced run. A human-readable summary goes to standard error. See
// workloads.go for the workloads and why each was chosen.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"seoracle/internal/core"
)

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // JSON has no NaN; a ratio over an empty set reads 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: poi-query, bulk-mix or tiled-lod")
		seed    = flag.Int64("seed", 1, "seed for the generated request streams")
		seconds = flag.Int("seconds", 8, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		workdir = flag.String("workdir", ".bench_build/perfbench/work", "directory for container and span files")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload poi-query|bulk-mix|tiled-lod, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	dur := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, dur, *workdir)
	} else {
		res, err = endToEnd(w, *seed, dur, *workdir)
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// endToEnd is the untraced run. It sets the workload up setupReps times
// from scratch (setup_s is the median) and gives each set-up an equal share
// of the timed phase right after it, so the timed closed loop is spread over
// the whole run rather than one stretch of it. The exact-geodesic stretch
// sample runs on the last instance, after the timed phase.
func endToEnd(w workload, seed int64, dur time.Duration, dir string) (result, error) {
	tr := generate(w, seed)
	var totals []float64
	var ph phase
	var in *instance
	var answers []answer
	var answered [sha256.Size]byte // container the answers were computed from
	defer func() {
		if in != nil {
			in.close()
			os.Remove(in.path)
		}
	}()
	for r := 0; r < setupReps; r++ {
		if in != nil {
			in.close()
			os.Remove(in.path) // a fresh file per set-up: the old mapping may outlive close()
			in = nil
		}
		var err error
		in, err = setup(w, filepath.Join(dir, fmt.Sprintf("%s-%d.sedx", w.name, r)), tr.streams, nil)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, in.rep.totalS)
		logf("perfbench: %s set-up %d: %.3f s (build %.3f, encode %.3f, load %.4f, warm-up %.3f)",
			w.name, r+1, in.rep.totalS, in.rep.buildS, in.rep.encodeS, in.rep.loadS, in.rep.warmupS)
		// The build is deterministic, so the answers computed for the first
		// container hold for every byte-identical later one.
		sum, err := fileSum(in.path)
		if err != nil {
			return result{}, err
		}
		if answers == nil || sum != answered {
			if answers, err = expect(in, tr); err != nil {
				return result{}, fmt.Errorf("expected answers: %w", err)
			}
			answered = sum
		}
		part := in.runPhase(tr, answers, dur/setupReps, false)
		logf("perfbench: %s timed share %d: %.0f req/s, p50 %.1f µs", w.name, r+1, part.throughput(), us(quantile(part.lat, 0.5)))
		ph.add(part)
	}
	if ph.firstErr != nil {
		logf("perfbench: first failure: %v", ph.firstErr)
	}
	samples := len(ph.lat)
	p50, p99 := quantile(ph.lat, 0.5), quantile(ph.lat, 0.99)
	ph.lat = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	stretch, within, pairs, err := stretchSample(in)
	if err != nil {
		return result{}, fmt.Errorf("stretch sample: %w", err)
	}

	res := result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	res.set("setup_s", median(totals), "s")
	res.set("throughput_rps", ph.throughput(), "req/s")
	res.set("latency_p50_us", us(p50), "us")
	res.set("latency_p99_us", us(p99), "us")
	res.set("ok_share", float64(ph.correct)/float64(ph.attempted), "ratio")
	res.set("index_bytes_per_poi", float64(in.rep.indexBytes)/float64(in.npoints), "B")
	res.set("heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")
	res.set("stretch_max", stretch, "ratio")
	res.set("eps_within_share", within, "ratio")
	logf("perfbench: %s seed %d: %d requests in %.2f s (%d failed), %.0f req/s, p50 %.1f µs, p99 %.1f µs over %d samples",
		w.name, seed, ph.attempted, ph.elapsed.Seconds(), ph.failed, ph.throughput(), us(p50), us(p99), samples)
	logf("perfbench: %s stretch over %d exact pairs: max %.4f, %.4f within (1±%g)", w.name, pairs, stretch, within, w.world.eps)
	return res, nil
}

func fileSum(path string) ([sha256.Size]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// tracedRun is the per-layer run: one set-up, an untraced and a traced half
// of the timed phase (their throughput difference is the tracing overhead),
// the core replay of the traced requests, the in-process layer sweep, and a
// cold reload for first-touch times. Spans are written to the work
// directory at the end.
func tracedRun(w workload, seed int64, dur time.Duration, dir string) (result, error) {
	tr := generate(w, seed)
	in, err := setup(w, filepath.Join(dir, w.name+".sedx"), tr.streams, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		in.close()
		os.Remove(in.path)
	}()
	answers, err := expect(in, tr)
	if err != nil {
		return result{}, fmt.Errorf("expected answers: %w", err)
	}
	res := result{Metrics: map[string]metric{}}
	rep := in.rep
	res.set("geodesic.ssad_calls", float64(rep.ssadCalls), "count")
	res.set("geodesic.ssad_s", rep.ssadS, "s")
	res.set("core.build_s", rep.buildS, "s")
	for i, phase := range []string{"tree", "edge", "pair", "hash"} {
		res.set("core.build."+phase+"_share", rep.phaseShare[i], "ratio")
	}
	res.set("core.encode_s", rep.encodeS, "s")
	res.set("core.load_s", rep.loadS, "s")
	res.set("core.index_bytes", float64(rep.indexBytes), "B")
	res.set("bench.warmup_s", rep.warmupS, "s")

	gc0 := readGCClock()
	plain := in.runPhase(tr, answers, dur/2, false)
	res.set("runtime.gc_cpu_share", readGCClock().shareSince(gc0), "ratio")
	traced := in.runPhase(tr, answers, dur/2, true)
	res.set("bench.trace_overhead_rps", plain.throughput()-traced.throughput(), "req/s")
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	for _, ph := range []phase{plain, traced} {
		if ph.firstErr != nil {
			logf("perfbench: first failure: %v", ph.firstErr)
		}
	}

	hit, err := cacheHitShare(in)
	if err != nil {
		return result{}, err
	}
	res.set("server.cache_hit_share", hit, "ratio")
	if sh, ok := in.idx.(*core.ShardedIndex); ok {
		ts, _ := sh.TileStats()
		res.set("core.faults", float64(ts.Faults), "count")
		res.set("core.evictions", float64(ts.Evictions), "count")
		res.set("core.resident_mb", float64(ts.ResidentBytes)/(1<<20), "MB")
	} else {
		st := in.idx.Stats()
		res.set("core.faults", 0, "count")
		res.set("core.evictions", 0, "count")
		res.set("core.resident_mb", float64(st.MemoryBytes+st.MappedBytes)/(1<<20), "MB")
	}

	// Client, handler and core spans of the traced requests.
	rp, err := replayCore(in.idx, traced.spans)
	if err != nil {
		return result{}, err
	}
	var rt, handler, transport, self []time.Duration
	for i, sp := range traced.spans {
		hd := time.Duration(in.spans.dur[sp.id].Load())
		rt = append(rt, sp.dur)
		handler = append(handler, hd)
		transport = append(transport, sp.dur-hd)
		self = append(self, hd-rp.core[i])
	}
	if err := writeSpans(filepath.Join(dir, "spans-"+w.name+".csv"), traced.spans, in.spans, rp); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	res.set("http.roundtrip_us", us(median(rt)), "us")
	res.set("http.transport_us", us(median(transport)), "us")
	res.set("server.handler_us", us(median(handler)), "us")
	res.set("server.self_us", us(median(self)), "us")

	var probes []time.Duration
	for _, p := range rp.probe {
		probes = append(probes, p...)
	}
	res.set("core.query_ns.p50", float64(quantile(probes, 0.5)), "ns")
	res.set("core.query_ns.p99", float64(quantile(probes, 0.99)), "ns")
	same := float64(median(rp.probe[routeSameTile]))
	res.set("core.same_tile_ns", same, "ns")
	n := float64(len(probes))
	res.set("core.route.portal_share", float64(len(rp.probe[routePortal]))/n, "ratio")
	res.set("core.route.coarse_share", float64(len(rp.probe[routeCoarse]))/n, "ratio")
	res.set("core.portal_cost_x", float64(median(rp.probe[routePortal]))/same, "ratio")
	res.set("core.coarse_cost_x", float64(median(rp.probe[routeCoarse]))/same, "ratio")
	logf("perfbench: %s core probes: same-tile %d at %.0f ns, portal %d at %d ns, coarse %d at %d ns (p50)",
		w.name, len(rp.probe[routeSameTile]), same, len(rp.probe[routePortal]), median(rp.probe[routePortal]),
		len(rp.probe[routeCoarse]), median(rp.probe[routeCoarse]))

	res.set("server.allocs_per_req", allocsPerRequest(in, tr), "count")
	sw, err := sweep(in, seed)
	if err != nil {
		return result{}, err
	}
	coreName := [numOps]string{opPath: "path", opNearest: "nearestk", opIsochrone: "reachable", opMatrix: "matrix"}
	for o := op(0); o < numOps; o++ {
		s := sw[o]
		res.Attempted += len(s.handler)
		res.Failed += s.failed
		res.set("server."+opNames[o]+"_us.p50", us(quantile(s.handler, 0.5)), "us")
		res.set("server."+opNames[o]+"_us.p99", us(quantile(s.handler, 0.99)), "us")
		if coreName[o] != "" {
			res.set("core."+coreName[o]+"_us", us(median(s.core)), "us")
		}
	}

	in.close()
	fault, err := coldFault(in, tr)
	if err != nil {
		return result{}, fmt.Errorf("cold load: %w", err)
	}
	res.set("core.fault_us", us(fault), "us")
	res.Correct = res.Failed == 0
	logf("perfbench: %s traced run: %.0f req/s untraced, %.0f req/s traced, %d spans, %d failed",
		w.name, plain.throughput(), traced.throughput(), len(traced.spans), res.Failed)
	return res, nil
}
