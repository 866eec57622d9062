package main

import (
	"fmt"
	"math"

	"seoracle"
	"seoracle/internal/core"
	"seoracle/internal/terrain"
)

// stretchSample compares the served index with exact geodesics: one exact
// SSAD (ExactDistances) per source POI against every other POI, outside the
// timed phase. It returns the largest answer/exact ratio and the share of
// pairs inside the paper's (1±ε)·d_exact. Nothing is filtered: a pair the
// index answers badly, such as a portal-stitched pair near a tile seam, is
// reported as measured.
func stretchSample(in *instance) (maxStretch, within float64, pairs int, err error) {
	ri, ok := in.idx.(core.Reachability)
	if !ok {
		return 0, 0, 0, fmt.Errorf("index answers no reachability queries")
	}
	// An unbounded isochrone from POI 0 lists every POI with its surface
	// point, in id order, on flat and hierarchical indexes alike.
	all, err := ri.Reachable(0, math.MaxFloat64)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(all) != in.npoints {
		return 0, 0, 0, fmt.Errorf("unbounded isochrone reached %d of %d POIs", len(all), in.npoints)
	}
	pts := make([]terrain.SurfacePoint, len(all))
	for i, rc := range all {
		pts[i] = rc.At
	}
	eps := in.w.world.eps
	inside := 0
	for s := range pts {
		exact := seoracle.ExactDistances(in.mesh, pts[s], pts)
		for t := range pts {
			if t == s || exact[t] == 0 {
				continue
			}
			d, err := in.idx.Query(int32(s), int32(t))
			if err != nil {
				return 0, 0, 0, err
			}
			maxStretch = math.Max(maxStretch, d/exact[t])
			if d >= (1-eps)*exact[t] && d <= (1+eps)*exact[t] {
				inside++
			}
			pairs++
		}
	}
	return maxStretch, float64(inside) / float64(pairs), pairs, nil
}
