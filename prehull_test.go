package parhull

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// facetKeys canonicalizes a public d-dimensional result to a facet multiset
// over original input indices.
func facetKeys(res *HullDResult) map[string]int {
	m := make(map[string]int, len(res.Facets))
	for _, f := range res.Facets {
		vs := append([]int(nil), f.Vertices...)
		sort.Ints(vs)
		m[fmt.Sprint(vs)]++
	}
	return m
}

// TestPreHullEquivalencePublic is the end-to-end exactness property of the
// pre-hull reduction: with the reduction forced on, every engine must report
// the identical hull — facet for facet, in original input indices — as the
// direct (PreHullOff) run. This is the public-API form of the invariant the
// internal/prehull tests pin per block.
func TestPreHullEquivalencePublic(t *testing.T) {
	pts := RandomPoints(5000, 3, 11)
	base, err := HullD(pts, &Options{Engine: EngineSequential, Shuffle: true, Seed: 3, PreHull: PreHullOff})
	if err != nil {
		t.Fatal(err)
	}
	want := facetKeys(base)
	wantV := sortedVertices(base.Vertices)
	for _, eng := range []Engine{EngineSequential, EngineParallel, EngineRounds} {
		for _, sk := range []SchedKind{SchedSteal, SchedGroup} {
			if eng != EngineParallel && sk == SchedGroup {
				continue // Sched only matters for EngineParallel
			}
			o := &Options{Engine: eng, Sched: sk, Shuffle: true, Seed: 3, PreHull: PreHullOn}
			res, err := HullD(pts, o)
			if err != nil {
				t.Fatalf("engine=%d sched=%d: %v", eng, sk, err)
			}
			if res.Stats.PreHullKept == 0 || res.Stats.PreHullKept >= len(pts) {
				t.Fatalf("engine=%d: PreHullKept = %d, expected a real reduction", eng, res.Stats.PreHullKept)
			}
			if res.Stats.PreHullBlocks < 2 {
				t.Fatalf("engine=%d: PreHullBlocks = %d", eng, res.Stats.PreHullBlocks)
			}
			got := facetKeys(res)
			if len(got) != len(want) {
				t.Fatalf("engine=%d sched=%d: %d facets vs %d direct", eng, sk, len(got), len(want))
			}
			for k, c := range want {
				if got[k] != c {
					t.Fatalf("engine=%d sched=%d: facet %s multiplicity %d vs %d", eng, sk, k, got[k], c)
				}
			}
			gotV := sortedVertices(res.Vertices)
			if fmt.Sprint(gotV) != fmt.Sprint(wantV) {
				t.Fatalf("engine=%d sched=%d: vertex sets differ", eng, sk)
			}
		}
	}
}

// TestPreHull2DEquivalencePublic is the 2D version, including the Z-order
// partitioning ablation: the hull vertex set must be invariant under
// pre-hull on/off and spatial/contiguous blocking.
func TestPreHull2DEquivalencePublic(t *testing.T) {
	pts := RandomPoints(6000, 2, 12)
	base, err := Hull2D(pts, &Options{Shuffle: true, Seed: 5, PreHull: PreHullOff})
	if err != nil {
		t.Fatal(err)
	}
	want := sortedVertices(base.Vertices)
	for _, noZ := range []bool{false, true} {
		res, err := Hull2D(pts, &Options{Shuffle: true, Seed: 5, PreHull: PreHullOn, NoPreHullZOrder: noZ})
		if err != nil {
			t.Fatalf("noZ=%v: %v", noZ, err)
		}
		if res.Stats.PreHullKept == 0 || res.Stats.PreHullKept >= len(pts)/2 {
			t.Fatalf("noZ=%v: PreHullKept = %d of %d, expected a strong reduction", noZ, res.Stats.PreHullKept, len(pts))
		}
		got := sortedVertices(res.Vertices)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("noZ=%v: vertices %v, want %v", noZ, got, want)
		}
	}
}

// TestPreHullAutoHeuristic checks both sides of the Auto probe: a large
// uniform ball (interior-heavy) must trigger the reduction, a same-size
// sphere (every point a hull vertex) must skip it.
func TestPreHullAutoHeuristic(t *testing.T) {
	ball := RandomPoints(20000, 3, 13)
	res, err := HullD(ball, &Options{Engine: EngineSequential, Shuffle: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PreHullKept == 0 {
		t.Fatal("auto mode skipped the reduction on a uniform ball")
	}
	if res.Stats.PreHullKept >= len(ball)/2 {
		t.Fatalf("ball barely reduced: kept %d of %d", res.Stats.PreHullKept, len(ball))
	}

	sphere := RandomSpherePoints(20000, 3, 13)
	res, err = HullD(sphere, &Options{Engine: EngineSequential, Shuffle: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PreHullKept != 0 || res.Stats.PreHullBlocks != 0 {
		t.Fatalf("auto mode ran the reduction on a sphere (kept %d, blocks %d)",
			res.Stats.PreHullKept, res.Stats.PreHullBlocks)
	}
	// Below the size floor the probe never runs, whatever the shape.
	small := RandomPoints(2000, 3, 13)
	res, err = HullD(small, &Options{Engine: EngineSequential})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PreHullKept != 0 {
		t.Fatalf("auto mode reduced a %d-point input below the floor", len(small))
	}
}

// TestPreHullWorkersOption pins the Theorem 5.5 side of Options.Workers: the
// pool width changes the schedule, never the hull.
func TestPreHullWorkersOption(t *testing.T) {
	pts := RandomPoints(4000, 3, 14)
	var want map[string]int
	for _, w := range []int{0, 1, 3, 8} {
		res, err := HullD(pts, &Options{Shuffle: true, Seed: 9, PreHull: PreHullOn, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := facetKeys(res)
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d facets vs %d", w, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("workers=%d: facet multiset differs", w)
			}
		}
	}
}

// TestPreHullCancelPublic checks the typed-error contract through the
// pre-hull path: an already-canceled context surfaces as ErrCanceled before
// any block sub-hull runs.
func TestPreHullCancelPublic(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := RandomPoints(4000, 3, 15)
	_, err := HullD(pts, &Options{PreHull: PreHullOn, Context: ctx})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestPreHullCullPublic drives an input large enough for the stage-1
// interior cull (the block-stage-only tests above sit below its size floor):
// the reduction must get dramatically stronger — a few percent of the input
// surviving — and the cull's survivors must go straight to the engine
// (PreHullBlocks == 1: no block stage), while the reported hull stays
// facet-identical to a direct run, for every engine and on a reused
// Builder.
func TestPreHullCullPublic(t *testing.T) {
	pts := RandomPoints(30000, 3, 16)
	base, err := HullD(pts, &Options{Engine: EngineSequential, Shuffle: true, Seed: 2, PreHull: PreHullOff})
	if err != nil {
		t.Fatal(err)
	}
	want := facetKeys(base)
	for _, eng := range []Engine{EngineParallel, EngineSequential, EngineRounds} {
		for _, mode := range []PreHullMode{PreHullOn, PreHullAuto} {
			b := NewBuilder(&Options{Engine: eng, Shuffle: true, Seed: 2, PreHull: mode})
			for rep := 0; rep < 2; rep++ {
				res, err := b.Build(pts)
				if err != nil {
					t.Fatal(err)
				}
				if kept := res.Stats.PreHullKept; kept == 0 || kept > len(pts)/5 {
					t.Fatalf("engine=%d mode=%d: PreHullKept = %d of %d, expected the interior cull to engage", eng, mode, kept, len(pts))
				}
				if res.Stats.PreHullBlocks != 1 {
					t.Fatalf("engine=%d mode=%d: PreHullBlocks = %d, want 1 (the cull's survivors go straight to the engine)", eng, mode, res.Stats.PreHullBlocks)
				}
				got := facetKeys(res)
				if len(got) != len(want) {
					t.Fatalf("engine=%d mode=%d: %d facets vs %d direct", eng, mode, len(got), len(want))
				}
				for k, c := range want {
					if got[k] != c {
						t.Fatalf("engine=%d mode=%d: facet %s multiplicity %d vs %d", eng, mode, k, got[k], c)
					}
				}
			}
			b.Close()
		}
	}
}

// TestPreHullFallbackBlocks pins the block stage as the fallback for inputs
// the cull cannot reduce: below its size floor (n = 5000) and above
// geom.MaxPlaneDim (d = 9). Both must still run block sub-hulls
// (PreHullBlocks >= 2) and report the direct run's hull. The 9D cloud is
// three simplices, each block's points filling one (the later two nested
// inside the first), in an order the contiguous blocks follow, so every
// hull in the test stays a simplex.
func TestPreHullFallbackBlocks(t *testing.T) {
	nine := func() []Point {
		const d, perBlock = 9, 100
		rng := rand.New(rand.NewSource(19))
		convex := func(verts []Point, spread float64) Point {
			w := make([]float64, len(verts))
			sum := 0.0
			for i := range w {
				w[i] = 1 + spread*rng.Float64()
				sum += w[i]
			}
			p := make(Point, d)
			for i, v := range verts {
				for j := range p {
					p[j] += w[i] / sum * v[j]
				}
			}
			return p
		}
		outer := make([]Point, d+1)
		for i := range outer {
			outer[i] = make(Point, d)
			for j := range outer[i] {
				outer[i][j] = 10 * rng.NormFloat64()
			}
		}
		var pts []Point
		for b := 0; b < 3; b++ {
			verts := outer
			if b > 0 {
				verts = make([]Point, d+1)
				for i := range verts {
					verts[i] = convex(outer, 0.5)
				}
			}
			pts = append(pts, verts...)
			for len(pts) < (b+1)*perBlock {
				pts = append(pts, convex(verts, 10))
			}
		}
		return pts
	}
	cases := []struct {
		name string
		pts  []Point
		opt  Options
	}{
		{"n=5000", RandomPoints(5000, 3, 20), Options{Shuffle: true, Seed: 4}},
		{"d=9", nine(), Options{NoPreHullZOrder: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			off := c.opt
			off.PreHull = PreHullOff
			base, err := HullD(c.pts, &off)
			if err != nil {
				t.Fatal(err)
			}
			on := c.opt
			on.PreHull = PreHullOn
			res, err := HullD(c.pts, &on)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.PreHullBlocks < 2 || res.Stats.PreHullKept == 0 || res.Stats.PreHullKept >= len(c.pts) {
				t.Fatalf("PreHullBlocks = %d, PreHullKept = %d of %d: want the block stage to reduce",
					res.Stats.PreHullBlocks, res.Stats.PreHullKept, len(c.pts))
			}
			want, got := facetKeys(base), facetKeys(res)
			if len(got) != len(want) {
				t.Fatalf("%d facets vs %d direct", len(got), len(want))
			}
			for k, m := range want {
				if got[k] != m {
					t.Fatalf("facet %s multiplicity %d vs %d", k, got[k], m)
				}
			}
		})
	}
}

// TestValidationNamesCallerIndex checks that a bad point is reported by its
// index in the caller's slice, not by its position in the shuffled
// insertion order, on every pre-hull path and for both error kinds.
func TestValidationNamesCallerIndex(t *testing.T) {
	const bad = 12345
	for _, mode := range []PreHullMode{PreHullAuto, PreHullOn, PreHullOff} {
		for _, kind := range []string{"nan", "dim"} {
			pts := RandomPoints(20000, 3, 21)
			if kind == "nan" {
				pts[bad] = Point{0.1, math.NaN(), 0.2}
			} else {
				pts[bad] = Point{0.1, 0.2}
			}
			_, err := HullD(pts, &Options{Shuffle: true, Seed: 6, PreHull: mode})
			if err == nil {
				t.Fatalf("mode=%d %s: no error", mode, kind)
			}
			if kind == "nan" && !errors.Is(err, ErrBadCoordinate) {
				t.Fatalf("mode=%d: err = %v, want ErrBadCoordinate", mode, err)
			}
			if want := fmt.Sprintf("point %d", bad); !strings.Contains(err.Error(), want) {
				t.Fatalf("mode=%d %s: err = %q, want it to name %q", mode, kind, err, want)
			}
		}
		pts := RandomPoints(20000, 2, 22)
		pts[bad] = Point{math.Inf(1), 0}
		_, err := Hull2D(pts, &Options{Shuffle: true, Seed: 6, PreHull: mode})
		if !errors.Is(err, ErrBadCoordinate) || !strings.Contains(err.Error(), fmt.Sprintf("point %d:", bad)) {
			t.Fatalf("mode=%d 2D: err = %v, want ErrBadCoordinate naming point %d", mode, err, bad)
		}
	}
}
