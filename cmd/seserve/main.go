// Command seserve loads a serialized index container of any kind (se, a2a,
// dynamic) and serves distance queries over an HTTP JSON API. The index is
// immutable once loaded, so queries run concurrently with no locking — and
// because the container carries everything the engine needs (including the
// terrain, for a2a and dynamic kinds), startup performs no geodesic
// computation at all.
//
// A multi (sharded) container serves every member from this one process:
// requests address a member with ?index=<name> or, for coordinate-addressed
// endpoints, by whichever member bbox contains the source point. The
// bounded LRU query cache (-cache, single-flight on misses) deduplicates
// hot repeated queries; hit/miss counters appear in /statsz.
//
// Robustness controls:
//
//	-max-inflight N   shed load beyond N concurrent requests (429 + Retry-After)
//	-deadline D       per-request budget; expired bulk work stops computing (503)
//	-drain D          how long SIGTERM/SIGINT waits for in-flight requests
//	-degraded         serve the healthy members of a partially corrupt multi
//	                  container, quarantining the rest (503 when addressed)
//	-mem-budget N     serve a multi container larger than RAM: members load
//	                  lazily on first touch and an LRU evicts decoded members
//	                  once their heap bytes exceed N (see /statsz "tiles")
//
// SIGHUP (or POST /admin/reload) re-loads the container from disk and swaps
// it in atomically: in-flight requests finish on the old index, new ones
// see the new, and the query cache is invalidated by generation. /readyz
// reports 503 while draining or degraded below quorum so load balancers
// route around the process; /healthz stays pure liveness.
//
// Chaos flags (-chaos-latency, -chaos-error-rate, -chaos-fail-member)
// inject faults for resilience rehearsal — deterministic, loudly logged,
// and inert unless set. See internal/chaos.
//
// Usage:
//
//	seserve -index index.sedx [-addr :8080] [-mmap] [-cache 1024]
//	        [-max-inflight 0] [-deadline 0] [-drain 5s] [-degraded]
//
// Endpoints (see internal/server):
//
//	curl 'localhost:8080/v1/query?s=3&t=17'
//	curl 'localhost:8080/v1/query?index=tile-0-0&s=3&t=17'     (multi kinds)
//	curl 'localhost:8080/v1/query?sx=10&sy=20&tx=400&ty=380'   (a2a kinds)
//	curl -d '{"pairs":[[0,1],[2,3]]}' localhost:8080/v1/batch
//	curl 'localhost:8080/v1/nearest?x=120&y=340'
//	curl localhost:8080/healthz
//	curl localhost:8080/readyz
//	curl localhost:8080/statsz
//	curl -X POST localhost:8080/admin/reload
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"seoracle/internal/chaos"
	"seoracle/internal/core"
	"seoracle/internal/server"
)

// observabilityPaths bypass chaos injection, mirroring the serving layer's
// own limiter exemptions: you must be able to watch the fire.
var observabilityPaths = map[string]bool{
	"/healthz":      true,
	"/readyz":       true,
	"/statsz":       true,
	"/admin/reload": true,
}

func main() {
	var (
		indexPath   = flag.String("index", "oracle.se", "serialized index container")
		addr        = flag.String("addr", ":8080", "listen address")
		useMmap     = flag.Bool("mmap", false, "memory-map the container instead of streaming it")
		cacheSize   = flag.Int("cache", 1024, "LRU query cache entries (0 disables caching)")
		maxInFlight = flag.Int("max-inflight", 0, "max concurrent requests before shedding with 429 (0 = unlimited)")
		deadline    = flag.Duration("deadline", 0, "per-request deadline; expired bulk queries answer 503 (0 = none)")
		drain       = flag.Duration("drain", 5*time.Second, "graceful-shutdown budget for in-flight requests")
		degraded    = flag.Bool("degraded", false, "serve a partially corrupt multi container, quarantining broken members")
		memBudget   = flag.Int64("mem-budget", 0, "decoded multi-member heap budget in bytes: members load lazily and evict LRU beyond it (0 = eager)")

		chaosLatency   = flag.Duration("chaos-latency", 0, "CHAOS: add latency to every data request")
		chaosErrorRate = flag.Float64("chaos-error-rate", 0, "CHAOS: fail this fraction of data requests with 503 (deterministic)")
		chaosFail      = flag.String("chaos-fail-member", "", "CHAOS: comma-separated member names to quarantine as if corrupt")
	)
	flag.Parse()
	if *chaosErrorRate < 0 || *chaosErrorRate > 1 {
		fatal("-chaos-error-rate must be in [0,1], got %g", *chaosErrorRate)
	}

	if *memBudget < 0 {
		fatal("-mem-budget must be >= 0 bytes, got %d", *memBudget)
	}

	// load is also the hot-reload path (SIGHUP, POST /admin/reload): every
	// reload honors the same -degraded / -mem-budget / -chaos-fail-member
	// configuration as startup.
	load := func() (core.DistanceIndex, []core.Quarantined, error) {
		idx, quarantined, err := server.LoadIndexOpts(*indexPath, *useMmap,
			core.LoadOptions{Tolerant: *degraded, MemBudget: *memBudget})
		if err != nil {
			return nil, nil, err
		}
		if *chaosFail != "" {
			var injected []core.Quarantined
			idx, injected, err = chaos.FailMembers(idx, strings.Split(*chaosFail, ","))
			if err != nil {
				return nil, nil, err
			}
			quarantined = append(quarantined, injected...)
		}
		return idx, quarantined, nil
	}

	t0 := time.Now()
	idx, quarantined, err := load()
	if err != nil {
		fatal("loading index: %v", err)
	}
	st := idx.Stats()
	// Flat indexes live in the mapping, not the heap; report both sides so
	// a zero-parse load doesn't log as a near-empty index.
	fmt.Printf("seserve: loaded %s index from %s in %v (%d points, eps=%g, %.3f MB heap + %.3f MB mapped)\n",
		st.Kind, *indexPath, time.Since(t0).Round(time.Millisecond),
		st.Points, st.Epsilon, float64(st.MemoryBytes)/(1<<20), float64(st.MappedBytes)/(1<<20))
	if sh, ok := idx.(*core.ShardedIndex); ok {
		fmt.Printf("seserve: %d members: %s\n", sh.NumMembers(), strings.Join(sh.MemberNames(), ", "))
		ts, _ := sh.TileStats()
		fmt.Printf("seserve: hierarchy: %d levels, %d portals, %d/%d members resident (budget %d bytes)\n",
			ts.Levels, ts.Portals, ts.Resident, ts.Members, ts.BudgetBytes)
	}
	for _, q := range quarantined {
		fmt.Printf("seserve: DEGRADED: member %q quarantined: %v\n", q.Name, q.Err)
	}

	s := server.NewWithOptions(idx, server.Options{
		CacheSize:   *cacheSize,
		MaxInFlight: *maxInFlight,
		Deadline:    *deadline,
		Quarantined: quarantined,
		Loader:      load,
	})
	handler := s.Handler()
	injector := &chaos.Injector{Latency: *chaosLatency, ErrorRate: *chaosErrorRate}
	if injector.Active() {
		fmt.Printf("seserve: CHAOS ACTIVE: latency=%v error-rate=%g\n", *chaosLatency, *chaosErrorRate)
		handler = injector.Middleware(handler, observabilityPaths)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("seserve: listening on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case err := <-errc:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				fatal("%v", err)
			}
			return
		case got := <-sig:
			if got == syscall.SIGHUP {
				if gen, err := s.Reload(); err != nil {
					fmt.Fprintf(os.Stderr, "seserve: SIGHUP reload failed (still serving the old index): %v\n", err)
				} else {
					fmt.Printf("seserve: SIGHUP reloaded %s (generation %d, %d quarantined)\n",
						*indexPath, gen, len(s.QuarantinedMembers()))
				}
				continue
			}
			fmt.Printf("seserve: %v, draining for up to %v\n", got, *drain)
			s.SetDraining(true) // /readyz goes 503 so balancers stop routing here
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			err := srv.Shutdown(ctx)
			cancel()
			if err != nil {
				fatal("shutdown: %v", err)
			}
			return
		}
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "seserve: "+format+"\n", args...)
	os.Exit(1)
}
