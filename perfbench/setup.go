package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"seoracle"
	"seoracle/internal/core"
	"seoracle/internal/geodesic"
	"seoracle/internal/server"
	"seoracle/internal/terrain"
)

// meteredEngine is the exact geodesic engine with every SSAD counted and
// timed (summed over the builder's worker goroutines). Embedding *Exact keeps
// PathTo and Mesh, which the builders probe for.
type meteredEngine struct {
	*geodesic.Exact
	calls atomic.Int64
	busy  atomic.Int64 // ns
}

func (e *meteredEngine) DistancesTo(src terrain.SurfacePoint, targets []terrain.SurfacePoint, stop geodesic.Stop) []float64 {
	t0 := time.Now()
	d := e.Exact.DistancesTo(src, targets, stop)
	e.busy.Add(int64(time.Since(t0)))
	e.calls.Add(1)
	return d
}

// timedWriter sums the time spent in Write.
type timedWriter struct {
	w    *bufio.Writer
	busy time.Duration
}

func (t *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.w.Write(p)
	t.busy += time.Since(t0)
	return n, err
}

// buildReport is what one set-up measured, phase by phase.
type buildReport struct {
	ssadCalls  int64
	ssadS      float64
	buildS     float64 // builder call (for a streamed container: build + encode)
	phaseShare [4]float64
	encodeS    float64
	loadS      float64
	warmupS    float64
	totalS     float64 // seed to warm server
	indexBytes int64
}

// instance is a served index: the loaded container behind server.Handler()
// on a loopback listener, plus the inputs it was built from.
type instance struct {
	w       workload
	mesh    *terrain.Mesh
	path    string
	idx     core.DistanceIndex
	srv     *server.Server
	spans   *spanHandler
	http    *http.Server
	served  chan struct{} // closed when the Serve goroutine returns
	conns   []*conn       // one per client
	cursor  []int         // next request of each client stream
	rep     buildReport
	npoints int // indexed (global) POI ids
}

// load loads the container the way `seserve -mmap [-mem-budget N]` does.
func (in *instance) load() (core.DistanceIndex, error) {
	idx, quarantined, err := server.LoadIndexOpts(in.path, true, core.LoadOptions{MemBudget: in.w.memBudget})
	if err != nil {
		return nil, err
	}
	if len(quarantined) > 0 {
		return nil, fmt.Errorf("load quarantined %d members", len(quarantined))
	}
	return idx, nil
}

// setup goes from the workload's world to a warm server: terrain and POI
// generation, index build, encode to a container file, load, listener, and
// the fixed warm-up pass over the head of the request streams. wrap, when
// set, wraps the server's handler (the self-tests use it to inject faults).
func setup(w workload, path string, streams [][]request, wrap func(http.Handler) http.Handler) (*instance, error) {
	in := &instance{w: w, path: path, cursor: make([]int, len(streams))}
	t0 := time.Now()
	spec := w.world
	mesh, err := seoracle.GenerateFractalTerrain(seoracle.FractalSpec{
		NX: spec.grid, NY: spec.grid, CellDX: spec.cellDX, Amp: spec.amp, Seed: spec.terrainSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("terrain: %w", err)
	}
	pois, err := seoracle.SampleUniformPOIs(mesh, spec.npoi, spec.poiSeed)
	if err != nil {
		return nil, fmt.Errorf("pois: %w", err)
	}
	in.mesh = mesh
	if err := in.build(pois); err != nil {
		return nil, err
	}
	st, err := os.Stat(in.path)
	if err != nil {
		return nil, err
	}
	in.rep.indexBytes = st.Size()

	tl := time.Now()
	if in.idx, err = in.load(); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	in.rep.loadS = time.Since(tl).Seconds()
	in.npoints = in.idx.Stats().Points
	if sh, ok := in.idx.(*core.ShardedIndex); ok {
		in.npoints = sh.NumGlobalIDs()
	}
	if in.npoints != spec.npoi {
		return nil, fmt.Errorf("index holds %d POIs, the request streams address %d", in.npoints, spec.npoi)
	}

	tw := time.Now()
	if err := in.serve(wrap); err != nil {
		return nil, err
	}
	if err := in.warm(streams); err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	in.rep.warmupS = time.Since(tw).Seconds()
	in.rep.totalS = time.Since(t0).Seconds()
	return in, nil
}

// build writes the workload's container to in.path through the public
// builders: Build + ConvertFlat + EncodeTo for a flat SE container,
// WriteSharded for a tiled one.
func (in *instance) build(pois []terrain.SurfacePoint) error {
	spec := in.w.world
	eng := &meteredEngine{Exact: geodesic.NewExact(in.mesh)}
	opt := core.Options{Epsilon: spec.eps, Seed: 1}
	f, err := os.Create(in.path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	tb := time.Now()
	if spec.tiles > 0 {
		// WriteSharded interleaves building and encoding member by member;
		// what can be told apart from outside is the time spent emitting
		// container bytes, which stands in for encode_s here.
		tw := &timedWriter{w: bw}
		_, err = core.WriteSharded(tw, eng, in.mesh, pois, spec.tiles,
			core.LODOptions{Options: opt, Levels: spec.levels, PortalsPerEdge: spec.portalsPerEdge}, true)
		if err == nil {
			t := time.Now()
			err = bw.Flush()
			tw.busy += time.Since(t)
		}
		in.rep.buildS = time.Since(tb).Seconds()
		in.rep.encodeS = tw.busy.Seconds()
	} else {
		var o *core.Oracle
		o, err = core.Build(eng, pois, opt)
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		in.rep.buildS = time.Since(tb).Seconds()
		bs := o.BuildStats()
		for i, d := range [4]time.Duration{bs.TreeTime, bs.EdgeTime, bs.PairTime, bs.HashTime} {
			in.rep.phaseShare[i] = d.Seconds() / in.rep.buildS
		}
		te := time.Now()
		var flat core.DistanceIndex
		if flat, err = core.ConvertFlat(o); err == nil {
			if err = flat.EncodeTo(bw); err == nil {
				err = bw.Flush()
			}
		}
		in.rep.encodeS = time.Since(te).Seconds()
	}
	if err != nil {
		return fmt.Errorf("build/encode: %w", err)
	}
	in.rep.ssadCalls = eng.calls.Load()
	in.rep.ssadS = float64(eng.busy.Load()) / 1e9
	return f.Close()
}

// serve starts server.Handler() (behind the span wrapper, which is inert
// until a traced phase arms it) on a loopback listener, configured like
// seserve.
func (in *instance) serve(wrap func(http.Handler) http.Handler) error {
	in.srv = server.NewWithOptions(in.idx, server.Options{CacheSize: in.w.cache})
	h := in.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	in.spans = &spanHandler{next: h}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.http = &http.Server{
		Handler:           in.spans,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	in.served = make(chan struct{})
	go func() {
		defer close(in.served)
		_ = in.http.Serve(ln) // ErrServerClosed once close() shuts it down
	}()
	in.conns = make([]*conn, clients)
	for c := range in.conns {
		in.conns[c] = &conn{addr: ln.Addr().String()}
	}
	return nil
}

// warm sends the fixed warm-up pass: the first warmup requests of the client
// streams, split across the clients, each of which must answer 200.
func (in *instance) warm(streams [][]request) error {
	per := in.w.warmup / len(streams)
	errc := make(chan error, len(streams))
	for c := range streams {
		in.cursor[c] = per
		go func(c int, reqs []request) {
			for i := 0; i < per; i++ {
				q := &reqs[i%len(reqs)]
				status, _, err := in.conns[c].roundTrip(q, -1)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("%s answered %d", q.url, status)
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(c, streams[c])
	}
	var first error
	for range streams {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close stops the listener and its connections, and drops the index.
func (in *instance) close() {
	if in.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := in.http.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "perfbench: shutdown: %v\n", err)
		}
		cancel()
		_ = in.http.Close()
		<-in.served
		in.http = nil
	}
	for _, c := range in.conns {
		c.close()
	}
	in.idx, in.srv, in.spans = nil, nil, nil
	runtime.GC()
	runtime.GC() // the second cycle runs the mapping's munmap finalizer
}
