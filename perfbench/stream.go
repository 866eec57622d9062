package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"

	"seoracle/internal/core"
	"seoracle/internal/terrain"
)

const (
	nearestK   = 8
	matrixSide = 32
	opBlock    = 10 // requests per shuffled op block; every mix share is a multiple of 1/opBlock
)

// request is one generated request: its parameters, its wire form, and the
// slot of its expected answer (identical requests share a slot).
type request struct {
	op       op
	s, t     int32   // query and path pair; isochrone source
	x, y     float64 // nearest point
	d        float64 // isochrone budget
	src, dst []int32 // matrix ids
	url      string  // path and query string
	body     []byte  // POST body (matrix)
	slot     int
}

// traffic is a workload's generated input: one request stream per client
// and the number of distinct requests across them.
type traffic struct {
	streams [][]request
	slots   int
}

// generate makes the workload's request streams from the seed alone: the
// same seed gives the same streams, whatever the machine.
func generate(w workload, seed int64) traffic {
	r := rand.New(rand.NewSource(seed))
	n := w.world.npoi
	ext := float64(w.world.grid-1) * w.world.cellDX
	var pairs [][2]int32
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s != t {
				pairs = append(pairs, [2]int32{int32(s), int32(t)})
			}
		}
	}
	shuffle := func(ps [][2]int32) {
		r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	}
	var zipf *rand.Zipf
	if w.zipf {
		// A Zipf law over a seeded ranking of every ordered pair: the head
		// of the ranking repeats often enough to live in the cache.
		shuffle(pairs)
		zipf = rand.NewZipf(r, 1.1, 1, uint64(len(pairs)-1))
	}
	// Uniform pairs are dealt from seeded shuffles of every ordered pair, one
	// deck after another, so each pair is equally frequent: the few slow
	// pairs (long coarse routes on tiled-lod) weigh the same in every run
	// instead of whatever a random draw gave them.
	dealt := len(pairs)
	pair := func() (int32, int32) {
		if zipf != nil {
			p := pairs[zipf.Uint64()]
			return p[0], p[1]
		}
		if dealt == len(pairs) {
			shuffle(pairs)
			dealt = 0
		}
		p := pairs[dealt]
		dealt++
		return p[0], p[1]
	}
	// Ops come in shuffled blocks of opBlock requests that hold each op's
	// share exactly, so every stream carries the same mix.
	var block []op
	for o := op(0); o < numOps; o++ {
		for i := 0; i < int(math.Round(w.mix[o]*opBlock)); i++ {
			block = append(block, o)
		}
	}
	next := len(block)
	nextOp := func() op {
		if next == len(block) {
			r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			next = 0
		}
		next++
		return block[next-1]
	}
	ids := func(k int) []int32 {
		out := make([]int32, k)
		for i := range out {
			out[i] = int32(r.Intn(n))
		}
		return out
	}
	slots := map[string]int{}
	tr := traffic{streams: make([][]request, clients)}
	for c := range tr.streams {
		reqs := make([]request, w.streamLen)
		for i := range reqs {
			q := request{op: nextOp()}
			switch q.op {
			case opQuery:
				q.s, q.t = pair()
				q.url = fmt.Sprintf("/v1/query?s=%d&t=%d", q.s, q.t)
			case opPath:
				q.s, q.t = pair()
				q.url = fmt.Sprintf("/v1/path?s=%d&t=%d", q.s, q.t)
			case opNearest:
				q.x, q.y = r.Float64()*ext, r.Float64()*ext
				q.url = "/v1/nearest?x=" + fmtFloat(q.x) + "&y=" + fmtFloat(q.y) + "&k=" + strconv.Itoa(nearestK)
			case opIsochrone:
				q.s = int32(r.Intn(n))
				q.d = ext * (0.15 + 0.35*r.Float64())
				q.url = fmt.Sprintf("/v1/isochrone?s=%d&d=%s", q.s, fmtFloat(q.d))
			case opMatrix:
				q.src, q.dst = ids(matrixSide), ids(matrixSide)
				q.url = "/v1/matrix"
				q.body, _ = json.Marshal(map[string][]int32{"sources": q.src, "targets": q.dst}) // []int32 always encodes
			}
			key := q.url + string(q.body)
			slot, ok := slots[key]
			if !ok {
				slot = len(slots)
				slots[key] = slot
			}
			q.slot = slot
			reqs[i] = q
		}
		tr.streams[c] = reqs
	}
	tr.slots = len(slots)
	return tr
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// answer is the direct library call's result for one request.
type answer struct {
	dist     float64   // query and path
	vertices int       // path
	ids      []int32   // nearest (in order) and isochrone (ascending)
	cells    []float64 // matrix, row-major
}

// call answers req with a direct call on the index the server serves.
func call(idx core.DistanceIndex, req *request) (answer, error) {
	var a answer
	var err error
	switch req.op {
	case opQuery:
		a.dist, err = idx.Query(req.s, req.t)
	case opPath:
		pi, ok := idx.(core.PathIndex)
		if !ok {
			return a, fmt.Errorf("index reports no paths")
		}
		var path []terrain.SurfacePoint
		path, a.dist, err = pi.QueryPath(req.s, req.t)
		a.vertices = len(path)
	case opNearest:
		if sh, ok := idx.(*core.ShardedIndex); ok {
			var ns []core.MemberNeighbor
			ns, err = sh.NearestKAcross(req.x, req.y, nearestK)
			for _, n := range ns {
				a.ids = append(a.ids, n.ID) // member-local: only the sweep times this, no workload checks it
			}
			break
		}
		nk, ok := idx.(core.NearestKFinder)
		if !ok {
			return a, fmt.Errorf("index answers no nearest-k queries")
		}
		var ns []core.Neighbor
		ns, err = nk.NearestK(req.x, req.y, nearestK)
		for _, n := range ns {
			a.ids = append(a.ids, n.ID)
		}
	case opIsochrone:
		ri, ok := idx.(core.Reachability)
		if !ok {
			return a, fmt.Errorf("index answers no reachability queries")
		}
		var rs []core.Reached
		rs, err = ri.Reachable(req.s, req.d)
		for _, rc := range rs {
			a.ids = append(a.ids, rc.ID)
		}
	case opMatrix:
		mi, ok := idx.(core.MatrixIndex)
		if !ok {
			return a, fmt.Errorf("index answers no matrices")
		}
		a.cells, err = mi.QueryMatrix(req.src, req.dst, nil)
	}
	return a, err
}

// expect computes every distinct request's answer by direct calls on a
// separate load of the served container, on all CPUs, outside set-up and
// the timed phase. The served index itself is touched only by the warm-up
// and the timed phase, so the answers cost the program no first-touch work.
func expect(in *instance, tr traffic) ([]answer, error) {
	idx, err := in.load()
	if err != nil {
		return nil, fmt.Errorf("reference load: %w", err)
	}
	answers := make([]answer, tr.slots)
	done := make([]bool, tr.slots)
	var todo []*request
	for c := range tr.streams {
		for i := range tr.streams[c] {
			q := &tr.streams[c][i]
			if !done[q.slot] {
				done[q.slot] = true
				todo = append(todo, q)
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += workers {
				a, err := call(idx, todo[i])
				if err != nil {
					errs[w] = fmt.Errorf("%s: %w", todo[i].url, err)
					return
				}
				answers[todo[i].slot] = a
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return answers, nil
}

// Response shapes, decoded only as far as the check needs.
type pathBody struct {
	Geometry struct {
		Coordinates [][3]float64 `json:"coordinates"`
	} `json:"geometry"`
	Properties struct {
		Distance float64 `json:"distance"`
		Vertices int     `json:"vertices"`
	} `json:"properties"`
}

type nearestBody struct {
	Neighbors []struct {
		ID int32 `json:"id"`
	} `json:"neighbors"`
}

type isochroneBody struct {
	Features []struct {
		Properties struct {
			ID *int32 `json:"id"` // absent on the contour feature
		} `json:"properties"`
	} `json:"features"`
}

type matrixBody struct {
	Distances []float64 `json:"distances"`
	Errors    []string  `json:"errors"`
}

// check compares a 200 response body with the direct call's answer:
// Float64bits equality for distances and matrix cells, equal id lists for
// nearest-k and isochrones, and for paths the same distance and vertex
// count plus a polyline whose length equals the reported distance within
// 1e-9.
func check(req *request, want *answer, body []byte) error {
	switch req.op {
	case opQuery:
		d, err := scanDistance(body)
		if err != nil {
			return err
		}
		if math.Float64bits(d) != math.Float64bits(want.dist) {
			return fmt.Errorf("distance %v, library says %v", d, want.dist)
		}
	case opPath:
		var b pathBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		d := b.Properties.Distance
		if math.Float64bits(d) != math.Float64bits(want.dist) {
			return fmt.Errorf("path distance %v, library says %v", d, want.dist)
		}
		cs := b.Geometry.Coordinates
		if b.Properties.Vertices != want.vertices || len(cs) != want.vertices {
			return fmt.Errorf("path has %d/%d vertices, library says %d", len(cs), b.Properties.Vertices, want.vertices)
		}
		length := 0.0
		for i := 1; i < len(cs); i++ {
			dx, dy, dz := cs[i][0]-cs[i-1][0], cs[i][1]-cs[i-1][1], cs[i][2]-cs[i-1][2]
			length += math.Sqrt(dx*dx + dy*dy + dz*dz)
		}
		if math.Abs(length-d) > 1e-9 {
			return fmt.Errorf("polyline length %v differs from the reported distance %v", length, d)
		}
	case opNearest:
		var b nearestBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		if len(b.Neighbors) != len(want.ids) {
			return fmt.Errorf("%d neighbors, library says %d", len(b.Neighbors), len(want.ids))
		}
		for i, n := range b.Neighbors {
			if n.ID != want.ids[i] {
				return fmt.Errorf("neighbor %d is %d, library says %v", i, n.ID, want.ids)
			}
		}
	case opIsochrone:
		var b isochroneBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		var got []int32
		for _, f := range b.Features {
			if f.Properties.ID != nil {
				got = append(got, *f.Properties.ID)
			}
		}
		if !equalIDs(got, want.ids) {
			return fmt.Errorf("isochrone reached %v, library says %v", got, want.ids)
		}
	case opMatrix:
		var b matrixBody
		if err := json.Unmarshal(body, &b); err != nil {
			return err
		}
		if len(b.Errors) > 0 || len(b.Distances) != len(want.cells) {
			return fmt.Errorf("matrix has %d cells and %d errors, library says %d cells", len(b.Distances), len(b.Errors), len(want.cells))
		}
		for i, d := range b.Distances {
			if math.Float64bits(d) != math.Float64bits(want.cells[i]) {
				return fmt.Errorf("matrix cell %d is %v, library says %v", i, d, want.cells[i])
			}
		}
	}
	return nil
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var distanceKey = []byte(`"distance":`)

// scanDistance reads the "distance" member of a /v1/query body without a
// full JSON decode, so the client's check stays cheap next to the request.
func scanDistance(body []byte) (float64, error) {
	i := bytes.Index(body, distanceKey)
	if i < 0 {
		return 0, fmt.Errorf("no distance in %q", body)
	}
	rest := body[i+len(distanceKey):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, fmt.Errorf("unterminated distance in %q", body)
	}
	return strconv.ParseFloat(string(bytes.TrimSpace(rest[:end])), 64)
}
