package exp

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"seoracle/internal/baseline"
	"seoracle/internal/core"
	"seoracle/internal/geodesic"
	"seoracle/internal/terrain"
)

// Method names used across figures.
const (
	MethodSEGreedy = "SE(Greedy)"
	MethodSERandom = "SE(Random)"
	MethodSENaive  = "SE-Naive"
	MethodSPOracle = "SP-Oracle"
	MethodKAlgo    = "K-Algo"
)

// Measurement is one curve point of a figure: the four panels the paper
// plots (building time, oracle size, query time, error) for one method at
// one sweep value.
type Measurement struct {
	Method    string
	X         float64 // sweep value: ε, n or N
	BuildSec  float64
	SizeMB    float64
	QueryMS   float64 // mean per-query latency
	AvgErr    float64 // observed relative error vs the exact geodesic
	MaxErr    float64
	ExtraInfo string
}

// querySet is a shared workload: random POI pairs with their exact
// distances (the paper answers 100 queries per configuration, §5.1).
type querySet struct {
	pairs [][2]int32
	exact []float64
}

// newQuerySet samples q random P2P queries and computes exact references
// with one SSAD per distinct source.
func newQuerySet(ds *Dataset, q int, seed int64) *querySet {
	rng := rand.New(rand.NewSource(seed))
	eng := geodesic.NewExact(ds.Mesh)
	qs := &querySet{}
	bySource := map[int32][]int{}
	for i := 0; i < q; i++ {
		s := int32(rng.Intn(len(ds.POIs)))
		t := int32(rng.Intn(len(ds.POIs)))
		if s == t {
			t = (t + 1) % int32(len(ds.POIs))
		}
		qs.pairs = append(qs.pairs, [2]int32{s, t})
		bySource[s] = append(bySource[s], i)
	}
	qs.exact = make([]float64, len(qs.pairs))
	for s, idxs := range bySource {
		targets := make([]terrain.SurfacePoint, len(idxs))
		for j, qi := range idxs {
			targets[j] = ds.POIs[qs.pairs[qi][1]]
		}
		d := eng.DistancesTo(ds.POIs[s], targets, geodesic.Stop{CoverTargets: true})
		for j, qi := range idxs {
			qs.exact[qi] = d[j]
		}
	}
	return qs
}

// p2pMethod abstracts one comparison method for the P2P experiments.
type p2pMethod interface {
	name() string
	build(ds *Dataset) error
	sizeBytes() int64
	query(ds *Dataset, s, t int32) (float64, error)
}

// methodByName constructs the standard methods used across figures.
func methodByName(name string, eps float64, seed int64, workers int) (p2pMethod, error) {
	switch name {
	case MethodSEGreedy:
		return &seMethod{label: name, opt: core.Options{Epsilon: eps, Selection: core.SelectGreedy, Seed: seed, Workers: workers}}, nil
	case MethodSERandom:
		return &seMethod{label: name, opt: core.Options{Epsilon: eps, Selection: core.SelectRandom, Seed: seed, Workers: workers}}, nil
	case MethodSENaive:
		return &seMethod{label: name, opt: core.Options{Epsilon: eps, Seed: seed, NaivePairDistances: true, Workers: workers}, naiveQuery: true}, nil
	case MethodSPOracle:
		return &spMethod{eps: eps, seed: seed}, nil
	case MethodKAlgo:
		return &kalgoMethod{eps: eps}, nil
	}
	return nil, fmt.Errorf("exp: unknown method %q", name)
}

type seMethod struct {
	label      string
	opt        core.Options
	naiveQuery bool
	oracle     *core.Oracle
}

func (m *seMethod) name() string { return m.label }

func (m *seMethod) build(ds *Dataset) error {
	o, err := core.Build(geodesic.NewExact(ds.Mesh), ds.POIs, m.opt)
	m.oracle = o
	return err
}

func (m *seMethod) sizeBytes() int64 { return m.oracle.SizeBytes() }

func (m *seMethod) query(ds *Dataset, s, t int32) (float64, error) {
	if m.naiveQuery {
		return m.oracle.QueryNaive(s, t)
	}
	return m.oracle.Query(s, t)
}

type spMethod struct {
	eps    float64
	seed   int64
	oracle *baseline.SPOracle
}

func (m *spMethod) name() string { return MethodSPOracle }

func (m *spMethod) build(ds *Dataset) error {
	o, err := baseline.NewSPOracle(geodesic.NewExact(ds.Mesh), ds.Mesh, m.eps, m.seed)
	m.oracle = o
	return err
}

func (m *spMethod) sizeBytes() int64 { return m.oracle.MemoryBytes() }

func (m *spMethod) query(ds *Dataset, s, t int32) (float64, error) {
	return m.oracle.Query(ds.POIs[s], ds.POIs[t])
}

type kalgoMethod struct {
	eps  float64
	algo *baseline.KAlgo
}

func (m *kalgoMethod) name() string { return MethodKAlgo }

func (m *kalgoMethod) build(ds *Dataset) error {
	a, err := baseline.NewKAlgo(ds.Mesh, m.eps)
	m.algo = a
	return err
}

func (m *kalgoMethod) sizeBytes() int64 { return m.algo.MemoryBytes() }

func (m *kalgoMethod) query(ds *Dataset, s, t int32) (float64, error) {
	d, _, _ := m.algo.Query(ds.POIs[s], ds.POIs[t])
	return d, nil
}

// measureP2P builds the method, answers the query set and reports the four
// panels.
func measureP2P(ds *Dataset, m p2pMethod, x float64, qs *querySet) (Measurement, error) {
	t0 := time.Now()
	if err := m.build(ds); err != nil {
		return Measurement{}, fmt.Errorf("%s on %s: %w", m.name(), ds.Name, err)
	}
	buildSec := time.Since(t0).Seconds()

	t1 := time.Now()
	var avgErr, maxErr float64
	for i, pq := range qs.pairs {
		got, err := m.query(ds, pq[0], pq[1])
		if err != nil {
			return Measurement{}, fmt.Errorf("%s query %d: %w", m.name(), i, err)
		}
		want := qs.exact[i]
		if want > 0 {
			re := math.Abs(got-want) / want
			avgErr += re
			maxErr = math.Max(maxErr, re)
		}
	}
	queryMS := time.Since(t1).Seconds() * 1000 / float64(len(qs.pairs))
	avgErr /= float64(len(qs.pairs))

	return Measurement{
		Method:   m.name(),
		X:        x,
		BuildSec: buildSec,
		SizeMB:   float64(m.sizeBytes()) / (1 << 20),
		QueryMS:  queryMS,
		AvgErr:   avgErr,
		MaxErr:   maxErr,
	}, nil
}
