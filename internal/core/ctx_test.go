package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"seoracle/internal/terrain"
)

// ctx_test.go — the context-aware query variants: identical answers under
// context.Background(), prompt and well-labelled failure once the context is
// cancelled or its deadline expires.

// cancelAfterIndex is a scriptable DistanceIndex whose Query cancels a
// context after a set number of calls — it lets the tests observe the
// mid-batch cancellation checks without wall-clock timing.
type cancelAfterIndex struct {
	calls  atomic.Int64 // atomic: MatrixViaBatch queries rows concurrently
	after  int64
	cancel context.CancelFunc
}

func (c *cancelAfterIndex) Query(s, t int32) (float64, error) {
	if n := c.calls.Add(1); c.cancel != nil && n == c.after {
		c.cancel()
	}
	if s < 0 || t < 0 {
		return 0, fmt.Errorf("negative endpoint")
	}
	return float64(s) + float64(t), nil
}

func (c *cancelAfterIndex) QueryBatch(pairs [][2]int32, dst []float64) ([]float64, error) {
	return BatchViaQuery(c.Query, pairs, dst)
}

func (c *cancelAfterIndex) MemoryBytes() int64 { return 0 }
func (c *cancelAfterIndex) Stats() IndexStats  { return IndexStats{Kind: KindSE} }
func (c *cancelAfterIndex) EncodeTo(w io.Writer) error {
	return ErrNotEncodable
}

func TestQueryBatchCtxBackgroundMatchesPlain(t *testing.T) {
	w := newTestWorld(t, 9, 10, 4401)
	o := w.build(t, Options{Epsilon: 0.25, Seed: 4402})
	var pairs [][2]int32
	for i := 0; i < o.NumPOIs(); i++ {
		for j := 0; j < o.NumPOIs(); j++ {
			pairs = append(pairs, [2]int32{int32(i), int32(j)})
		}
	}
	want, err := o.QueryBatch(pairs, nil)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	got, err := QueryBatchCtx(context.Background(), o, pairs, nil)
	if err != nil {
		t.Fatalf("QueryBatchCtx: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: ctx answer %v, plain %v", i, got[i], want[i])
		}
	}
}

func TestQueryBatchCtxCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	idx := &cancelAfterIndex{}
	pairs := make([][2]int32, 10)
	_, err := QueryBatchCtx(ctx, idx, pairs, nil)
	if err == nil {
		t.Fatal("cancelled batch returned no error")
	}
	if !IsContextErr(err) {
		t.Fatalf("error %q is not a context error", err)
	}
	if n := idx.calls.Load(); n != 0 {
		t.Fatalf("cancelled batch still ran %d queries", n)
	}
}

func TestQueryBatchCtxCancelsMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	idx := &cancelAfterIndex{after: 10, cancel: cancel}
	pairs := make([][2]int32, 4*ctxCheckStride)
	_, err := QueryBatchCtx(ctx, idx, pairs, nil)
	if err == nil {
		t.Fatal("batch ignored a mid-flight cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %q does not wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled at pair") {
		t.Fatalf("error %q does not name the pair it stopped at", err)
	}
	// The stride bounds the post-cancellation work: cancellation at call 10
	// is seen at the next multiple of the stride.
	if n := idx.calls.Load(); n > 2*ctxCheckStride {
		t.Fatalf("batch ran %d queries after cancelling at 10 (stride %d)", n, ctxCheckStride)
	}
}

func TestQueryBatchCtxPairErrorKeepsBatchIndex(t *testing.T) {
	idx := &cancelAfterIndex{}
	pairs := make([][2]int32, 2*ctxCheckStride)
	bad := ctxCheckStride + 7
	pairs[bad] = [2]int32{-1, 0}
	_, err := QueryBatchCtx(context.Background(), idx, pairs, nil)
	if err == nil {
		t.Fatal("bad pair returned no error")
	}
	if want := fmt.Sprintf("pair %d", bad); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not carry the batch-wide index %q", err, want)
	}
}

func TestQueryMatrixCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	idx := &cancelAfterIndex{}
	src := []int32{0, 1, 2, 3}
	_, err := QueryMatrixCtx(ctx, idx, src, src, nil)
	if err == nil {
		t.Fatal("cancelled matrix returned no error")
	}
	if !IsContextErr(err) || !strings.Contains(err.Error(), "matrix cancelled at row") {
		t.Fatalf("error %q is not a labelled matrix cancellation", err)
	}
}

func TestQueryMatrixCtxBackgroundMatchesPlain(t *testing.T) {
	idx := &cancelAfterIndex{}
	src := []int32{0, 1, 2}
	dstA, err := MatrixViaBatch(idx, src, src, nil)
	if err != nil {
		t.Fatalf("MatrixViaBatch: %v", err)
	}
	dstB, err := QueryMatrixCtx(context.Background(), idx, src, src, nil)
	if err != nil {
		t.Fatalf("QueryMatrixCtx: %v", err)
	}
	for i := range dstA {
		if dstA[i] != dstB[i] {
			t.Fatalf("cell %d: ctx answer %v, plain %v", i, dstB[i], dstA[i])
		}
	}
}

// stubPointPath is a minimal PointPathIndex for the XY cancellation test
// (only SiteOracle implements the full interface in-tree, and building one
// is overkill for a ctx short-circuit check).
type stubPointPath struct {
	cancelAfterIndex
	xyCalls int
}

func (s *stubPointPath) QueryPath(a, b int32) ([]terrain.SurfacePoint, float64, error) {
	return nil, float64(a + b), nil
}

func (s *stubPointPath) QueryPathPoints(a, b terrain.SurfacePoint) ([]terrain.SurfacePoint, float64, error) {
	return nil, 0, nil
}

func (s *stubPointPath) QueryPathXY(sx, sy, tx, ty float64) ([]terrain.SurfacePoint, float64, error) {
	s.xyCalls++
	return nil, 1, nil
}

func TestQueryPathCtxCancelled(t *testing.T) {
	w := newTestWorld(t, 9, 6, 4403)
	o := w.build(t, Options{Epsilon: 0.25, Seed: 4404})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := QueryPathCtx(ctx, o, 0, 1); err == nil || !IsContextErr(err) {
		t.Fatalf("cancelled path query: err = %v, want context error", err)
	}
	pp := &stubPointPath{}
	if _, _, err := QueryPathXYCtx(ctx, pp, 0, 0, 1, 1); err == nil || !IsContextErr(err) {
		t.Fatalf("cancelled XY path query: err = %v, want context error", err)
	}
	if pp.xyCalls != 0 {
		t.Fatalf("cancelled XY path query still ran %d times", pp.xyCalls)
	}
	if _, d, err := QueryPathXYCtx(context.Background(), pp, 0, 0, 1, 1); err != nil || d != 1 {
		t.Fatalf("background XY path query: d = %v, err = %v", d, err)
	}

	// Background: identical to the plain call.
	wantPath, wantD, err := o.QueryPath(0, 1)
	if err != nil {
		t.Fatalf("QueryPath: %v", err)
	}
	gotPath, gotD, err := QueryPathCtx(context.Background(), o, 0, 1)
	if err != nil {
		t.Fatalf("QueryPathCtx: %v", err)
	}
	if gotD != wantD || len(gotPath) != len(wantPath) {
		t.Fatalf("ctx path (%d pts, %v) differs from plain (%d pts, %v)",
			len(gotPath), gotD, len(wantPath), wantD)
	}
}

func TestNearestKAcrossCtxCancelled(t *testing.T) {
	w := newTestWorld(t, 9, 16, 4405)
	sh := buildSharded(t, w, 4, Options{Epsilon: 0.25, Seed: 4406})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sh.NearestKAcrossCtx(ctx, 0, 0, 3); err == nil || !IsContextErr(err) {
		t.Fatalf("cancelled nearest-k: err = %v, want context error", err)
	}
	want, err := sh.NearestKAcross(0, 0, 3)
	if err != nil {
		t.Fatalf("NearestKAcross: %v", err)
	}
	got, err := sh.NearestKAcrossCtx(context.Background(), 0, 0, 3)
	if err != nil {
		t.Fatalf("NearestKAcrossCtx: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("ctx nearest-k returned %d neighbors, plain %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbor %d: ctx %+v, plain %+v", i, got[i], want[i])
		}
	}
}

// mustReader asserts test-side encoding round trips (keeps the helpers
// honest if the container layout evolves).
func TestSectionOffsetsRoundTrip(t *testing.T) {
	sh, blob := encodeMultiBlob(t)
	offs := sectionOffsets(t, blob)
	if _, ok := offs[secManifest]; !ok {
		t.Fatal("walker found no manifest section")
	}
	for i := 0; i < sh.NumMembers(); i++ {
		span, ok := offs[secMemberBase+uint32(i)]
		if !ok {
			t.Fatalf("walker found no member section %d", i)
		}
		// Each member payload is itself a container: check its magic.
		if got := string(blob[span[0] : span[0]+4]); got != containerMagic {
			t.Fatalf("member %d payload starts %q, want %q", i, got, containerMagic)
		}
	}
	if _, err := Load(bytes.NewReader(blob)); err != nil {
		t.Fatalf("Load of the intact blob: %v", err)
	}
}
