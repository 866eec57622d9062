package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"seoracle/internal/core"
	"seoracle/internal/server"
)

// route is the way the core answered one probe, told apart by the TileStats
// counters around it.
type route int

const (
	routeSameTile route = iota // neither portal-stitched nor coarse: one SE oracle answered
	routePortal
	routeCoarse
	numRoutes
)

// replayed is the core replay of a traced phase.
type replayed struct {
	core  []time.Duration            // by span: the direct call behind the request
	probe [numRoutes][]time.Duration // Query probes by route
}

// replayCore replays the traced requests against the index's public methods,
// one at a time, so each request gets a core span beside its handler span.
// Every query and path pair is also probed against Query and classified by
// route.
func replayCore(idx core.DistanceIndex, spans []clientSpan) (replayed, error) {
	var rp replayed
	sh, _ := idx.(*core.ShardedIndex)
	routeOf := func(before core.TileStats) route {
		if sh == nil {
			return routeSameTile
		}
		after, _ := sh.TileStats()
		switch {
		case after.PortalQueries > before.PortalQueries:
			return routePortal
		case after.CoarseQueries > before.CoarseQueries:
			return routeCoarse
		}
		return routeSameTile
	}
	tileStats := func() core.TileStats {
		if sh == nil {
			return core.TileStats{}
		}
		ts, _ := sh.TileStats()
		return ts
	}
	rp.core = make([]time.Duration, len(spans))
	for i, sp := range spans {
		q := sp.req
		before := tileStats()
		t0 := time.Now()
		_, err := call(idx, q)
		rp.core[i] = time.Since(t0)
		if err != nil {
			return rp, fmt.Errorf("replay %s: %w", q.url, err)
		}
		switch q.op {
		case opQuery:
			r := routeOf(before)
			rp.probe[r] = append(rp.probe[r], rp.core[i])
		case opPath:
			before = tileStats()
			t0 = time.Now()
			_, err = idx.Query(q.s, q.t)
			d := time.Since(t0)
			if err != nil {
				return rp, fmt.Errorf("replay query %d-%d: %w", q.s, q.t, err)
			}
			r := routeOf(before)
			rp.probe[r] = append(rp.probe[r], d)
		}
	}
	return rp, nil
}

// recorder is a reusable in-process ResponseWriter.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }
func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}
func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}
func (r *recorder) reset() {
	if r.h == nil {
		r.h = http.Header{}
	}
	clear(r.h)
	r.status = 0
	r.body.Reset()
}

func newHTTPRequest(q *request) *http.Request {
	if q.body != nil {
		hr := httptest.NewRequest(http.MethodPost, q.url, bytes.NewReader(q.body))
		hr.Header.Set("Content-Type", "application/json")
		return hr
	}
	return httptest.NewRequest(http.MethodGet, q.url, nil)
}

// sweepResult is one op's in-process timing: ServeHTTP on an uncached
// server, and the direct core call for the same request.
type sweepResult struct {
	handler, core []time.Duration
	failed        int
}

const (
	sweepLen    = 2000                   // requests generated per op
	sweepMin    = 20                     // requests timed per op, however slow
	sweepWindow = 400 * time.Millisecond // per op, past sweepMin, so a slow op cannot stretch a run
)

// sweep times every endpoint in process on the workload's index, whether or
// not the workload's traffic sends it, so each layer is measured on every
// workload. The server has no cache: a sweep measures the handler and the
// core, and cache behavior shows in the served workload instead.
func sweep(in *instance, seed int64) ([numOps]sweepResult, error) {
	var out [numOps]sweepResult
	h := server.NewWithOptions(in.idx, server.Options{}).Handler()
	var rec recorder
	for o := op(0); o < numOps; o++ {
		sw := in.w
		sw.mix = [numOps]float64{}
		sw.mix[o], sw.zipf, sw.streamLen = 1, false, sweepLen
		reqs := generate(sw, seed+1+int64(o)).streams[0]
		res := &out[o]
		start := time.Now()
		for i := range reqs {
			if i >= sweepMin && time.Since(start) > sweepWindow {
				break
			}
			q := &reqs[i]
			// An untimed direct call first, so the handler and the core are
			// timed in the same state: first-touch work (path segments, member
			// faults) shows in bench.warmup_s and core.fault_us instead.
			if _, err := call(in.idx, q); err != nil {
				return out, fmt.Errorf("sweep %s: %w", q.url, err)
			}
			hr := newHTTPRequest(q)
			rec.reset()
			t0 := time.Now()
			h.ServeHTTP(&rec, hr)
			res.handler = append(res.handler, time.Since(t0))
			if rec.status != http.StatusOK {
				res.failed++
			}
			t0 = time.Now()
			_, _ = call(in.idx, q) // succeeded untimed just above
			res.core = append(res.core, time.Since(t0))
		}
	}
	return out, nil
}

// allocsPerRequest serves the workload's next requests in process, on the
// workload's own server and cache, and counts heap allocations per request.
func allocsPerRequest(in *instance, tr traffic) float64 {
	reqs := tr.streams[0]
	n := min(1000, len(reqs))
	hrs := make([]*http.Request, n)
	for i := range hrs {
		hrs[i] = newHTTPRequest(&reqs[(in.cursor[0]+i)%len(reqs)])
	}
	h := in.srv.Handler()
	var rec recorder
	rec.reset()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, hr := range hrs {
		rec.reset()
		h.ServeHTTP(&rec, hr)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// cacheHitShare reads the query cache counters from /statsz.
func cacheHitShare(in *instance) (float64, error) {
	status, raw, err := in.conns[0].roundTrip(&request{url: "/statsz"}, -1)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("answered %d", status)
	}
	if err != nil {
		return 0, fmt.Errorf("statsz: %w", err)
	}
	var body struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		return 0, fmt.Errorf("statsz: %w", err)
	}
	if n := body.Cache.Hits + body.Cache.Misses; n > 0 {
		return float64(body.Cache.Hits) / float64(n), nil
	}
	return 0, nil
}

// coldFault loads the container afresh and times first touches: every
// member fault on a lazily loaded multi container (median), or the first
// query of a flat container straight off the mapping.
func coldFault(in *instance, tr traffic) (time.Duration, error) {
	idx, err := in.load()
	if err != nil {
		return 0, err
	}
	sh, ok := idx.(*core.ShardedIndex)
	if !ok {
		q := &tr.streams[0][0]
		t0 := time.Now()
		_, err := idx.Query(q.s, q.t)
		return time.Since(t0), err
	}
	var faults []time.Duration
	for i := range tr.streams[0] {
		q := &tr.streams[0][i]
		before, _ := sh.TileStats()
		if before.Resident == before.Members {
			break
		}
		t0 := time.Now()
		if _, err := sh.Query(q.s, q.t); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		if after, _ := sh.TileStats(); after.Faults > before.Faults {
			faults = append(faults, d)
		}
	}
	return median(faults), nil
}

// gcClock samples the runtime's GC and total CPU-time estimates.
type gcClock struct{ gc, total float64 }

func readGCClock() gcClock {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcClock{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

func (c gcClock) shareSince(prev gcClock) float64 {
	if c.total <= prev.total {
		return 0
	}
	return (c.gc - prev.gc) / (c.total - prev.total)
}

// writeSpans writes the traced phase's spans, one request per line: the
// client round trip, the handler span under the same id, and the core
// replay of the same request.
func writeSpans(path string, spans []clientSpan, h *spanHandler, rp replayed) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,client,op,url,client_start_ns,client_ns,handler_start_ns,handler_ns,core_ns")
	for i, sp := range spans {
		fmt.Fprintf(bw, "%d,%d,%s,%s,%d,%d,%d,%d,%d\n", sp.id, sp.client, opNames[sp.req.op], sp.req.url,
			sp.start, sp.dur, h.start[sp.id].Load(), h.dur[sp.id].Load(), rp.core[i])
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
