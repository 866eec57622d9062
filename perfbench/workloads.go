package main

// op is one request family the benchmark sends.
type op uint8

const (
	opQuery op = iota
	opPath
	opNearest
	opIsochrone
	opMatrix
	numOps
)

var opNames = [numOps]string{"query", "path", "nearest", "isochrone", "matrix"}

// world fixes the terrain, the POIs and the index built over them. The world
// is part of the workload, not of the seed: every seed serves the same index,
// so run-to-run spread measures the system, not the luck of a terrain draw.
type world struct {
	grid        int     // fractal grid vertices per axis
	cellDX      float64 // grid spacing
	amp         float64 // vertical relief
	terrainSeed int64
	npoi        int
	poiSeed     int64
	eps         float64
	// tiles > 0 builds a WriteSharded LOD container (flat members) with this
	// many fine tiles, levels total and portalsPerEdge boundary portals.
	tiles, levels, portalsPerEdge int
}

// workload is one named traffic mix over one world, with the serving
// configuration seserve would be started with.
type workload struct {
	name  string
	world world
	// cache is seserve's -cache; memBudget its -mem-budget (0 = eager).
	cache     int
	memBudget int64
	// mix[o] is op o's share of requests, by count.
	mix [numOps]float64
	// zipf skews query pairs (a Zipf law over a seeded pair ranking) so a
	// share of requests repeats within the cache; otherwise pairs are uniform.
	zipf bool
	// streamLen is the per-client request stream length. Clients cycle
	// through it; a lap of both streams is longer than the 1024-entry cache,
	// so a lap never finds what the previous one left there.
	streamLen int
	// warmup is the fixed number of requests sent before timing, counted
	// in set-up, so lazy work the program does on first touch (path
	// segments, member faults) is paid there and not hidden elsewhere.
	warmup int
}

// The load shape is a closed loop: two clients (one per CPU of the 2-CPU
// machine the baseline was taken on), each sending its next request only
// after the previous answer arrived, all in one process over loopback. An
// open loop was tried first and rejected: on that machine time.Sleep(100µs)
// overshoots by ~1 ms at p50, so the generator's own timer set the latency
// (an open-loop p99 at 5k req/s read 1.7 ms in one run and 5.0 ms in the
// next), while a closed loop, which has no timer in its path, gave
// 29.5–32.1k req/s and a p50 of 50–53 µs over five 10 s runs even with
// net/http's client. It also matches this API's callers, such as
// examples/dispatch and the game server in examples/gameportals, which each
// wait for a reply. An open-loop rate/limit workload waits until a generator
// can pace well below the service time.
const clients = 2

// flatWorld is a 25×25 fractal grid with 100 POIs at ε = 0.2: one flat SE
// container of ~140 KB that builds in ~2.5 s.
var flatWorld = world{grid: 25, cellDX: 10, amp: 120, terrainSeed: 1, npoi: 100, poiSeed: 2, eps: 0.2}

// tiledWorld is the world of BenchmarkPortalQuery (the sf-small terrain): a
// 17×17 grid with 30 POIs at ε = 0.25, 4 fine tiles, 2 levels and 8 portals
// per shared edge, ~40 MB on disk after a ~14 s build. Its coarse A2A member
// decodes to ~159 MB against 30–50 KB per fine tile.
var tiledWorld = world{grid: 17, cellDX: 30, amp: 220, terrainSeed: 1701, npoi: 30, poiSeed: 1702, eps: 0.25,
	tiles: 4, levels: 2, portalsPerEdge: 8}

var workloads = []workload{
	// poi-query is the paper's core use: scalar POI-to-POI distances, 100%
	// GET /v1/query?s=&t= on one flat SE container served like
	// `seserve -mmap -cache 1024`. Pairs are Zipf-skewed so a measured share
	// repeats within the cache. Transport and handler do almost all the work
	// (the core probe is 0.1–0.4 µs of a ~65 µs request), so handler-tax,
	// cache and observability changes show here.
	{name: "poi-query", world: flatWorld, cache: 1024, mix: [numOps]float64{opQuery: 1},
		zipf: true, streamLen: 1 << 16, warmup: 4000},
	// bulk-mix is the examples/dispatch and examples/hiking traffic on the
	// same container: by count 40% GET /v1/path, 30% GET /v1/nearest with
	// k = 8, 20% GET /v1/isochrone and 10% POST /v1/matrix with 32×32 ids.
	// These cost roughly 42 / 51 / 110 / 222 µs of CPU each, so every
	// endpoint takes a comparable share of the time. Pairs are uniform, so
	// the cache rarely hits; the core bulk paths (QueryPath segments,
	// NearestK, Reachable, QueryMatrix) and large-body JSON encoding do the
	// work and the per-request transport cost is amortized. Path-slab and
	// bulk-encoder changes show here; the scalar parse path and the cache
	// are bypassed. The warm-up is one full lap of both streams: a path
	// computes its geodesic hop segments on first touch (~3 ms, against tens
	// of µs warm), and a path slab built ahead of time must be weighed
	// against exactly that work in setup_s.
	{name: "bulk-mix", world: flatWorld, cache: 1024,
		mix:  [numOps]float64{opPath: 0.4, opNearest: 0.3, opIsochrone: 0.2, opMatrix: 0.1},
		zipf: false, streamLen: 2048, warmup: clients * 2048},
	// tiled-lod is larger-than-RAM serving: the WriteSharded LOD container
	// loaded lazily (mmap) under a memory budget above the decoded working
	// set, so every member faults once during warm-up and then stays
	// resident. Traffic is GET /v1/query with uniform unnamed global ids;
	// the routes split ~28% same-tile, 49% portal and 23% coarse at a core
	// cost of ~38 µs on average. The query cache is off (-cache 0): the
	// world has only 870 ordered pairs, which a 1024-entry cache would hold
	// entirely, and then no route would be measured. The core hierarchy and
	// lazy layers do the work; the portal ε fix and portal pruning show here
	// and nowhere else.
	//
	// There is no budget-below-working-set workload yet: the coarse member
	// alone decodes to ~159 MB, so any budget below the working set refaults
	// it at ~1.3 s per touch and measures nothing but that refault. Shrinking
	// the coarse level is a change to the program, not to this benchmark.
	{name: "tiled-lod", world: tiledWorld, cache: 0, memBudget: 512 << 20, mix: [numOps]float64{opQuery: 1},
		zipf: false, streamLen: 1 << 14, warmup: 1000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupReps is how many times a run sets up from scratch; setup_s is the
// median.
const setupReps = 3
