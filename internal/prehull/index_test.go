package prehull

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"parhull/internal/certify"
	"parhull/internal/geom"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/pointgen"
)

// testIndex is a direction index over the hull of a whole small cloud, with
// the facets it was built from (for the exact interior check).
type testIndex struct {
	ix     *cullIndex
	pts    []geom.Point
	facets [][]int32
	inside []int // exact OrientSimplex sign of the centroid per facet
}

// newTestIndex hulls pts and indexes the hull with g bins per face axis
// (g <= 0: the auto rule). It skips the test when the cloud is degenerate
// or its planes do not certify the centroid.
func newTestIndex(t testing.TB, pts []geom.Point, g int) *testIndex {
	t.Helper()
	d := len(pts[0])
	s := new(Scratch)
	eps := geom.StaticFilterEps(bound(t, pts))
	if eps <= 0 {
		t.Skip("no static filter for this cloud")
	}
	c := &culler{pts: pts, d: d, eps: eps, cfg: Config{Scratch: s}, s: s}
	rows, _, err := hullRows(c.cfg, d, pts, nil)
	if err != nil {
		t.Skipf("degenerate cloud: %v", err)
	}
	facets := splitRows(rows, d)
	if !c.index(pts, pts, rows) {
		t.Skip("planes do not certify the centroid")
	}
	if g > 0 {
		s.idx.build(g)
	}
	ti := &testIndex{ix: &s.idx, pts: pts, facets: facets}
	c0 := geom.Point(s.idx.c[:d])
	for _, fv := range facets {
		ti.inside = append(ti.inside, geom.OrientSimplex(ti.verts(fv), c0))
	}
	return ti
}

// splitRows views flat facet rows of stride d as one slice per facet.
func splitRows(rows []int32, d int) [][]int32 {
	facets := make([][]int32, 0, len(rows)/d)
	for f := 0; f+d <= len(rows); f += d {
		facets = append(facets, rows[f:f+d])
	}
	return facets
}

// bound is the cloud's per-dimension absolute coordinate bound.
func bound(t testing.TB, pts []geom.Point) []float64 {
	t.Helper()
	maxAbs, err := geom.ValidateCloudBound(pts, len(pts[0]), nil)
	if err != nil {
		t.Fatal(err)
	}
	return maxAbs
}

func (ti *testIndex) verts(fv []int32) []geom.Point {
	vp := make([]geom.Point, len(fv))
	for i, v := range fv {
		vp[i] = ti.pts[v]
	}
	return vp
}

// exitFacet is the brute-force exit facet of direction u: the plane with
// the largest ĝ_F·u.
func (ti *testIndex) exitFacet(u []float64) int {
	ix := ti.ix
	d := ix.d
	best, bestV := -1, math.Inf(-1)
	for f := range ix.gnorm {
		v := 0.0
		for j := 0; j < d; j++ {
			v += ix.ghat[f*d+j] * u[j]
		}
		if v > bestV {
			best, bestV = f, v
		}
	}
	return best
}

// listed reports whether plane f's row is in the candidate list of cell.
func (ti *testIndex) listed(cell, f int) bool {
	ix := ti.ix
	d := ix.d
	want := ix.planes[f*(d+1) : (f+1)*(d+1)]
	rows := ix.rows[int(ix.span[2*cell])*(d+1) : int(ix.span[2*cell+1])*(d+1)]
	for k := 0; k < len(rows); k += d + 1 {
		same := true
		for j := 0; j <= d; j++ {
			if rows[k+j] != want[j] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// certifiedAll is the brute-force filter: every plane certifies x.
func (ti *testIndex) certifiedAll(x []float64) bool {
	ix := ti.ix
	d := ix.d
	for f := range ix.gnorm {
		if evalRow(ix.planes[f*(d+1):(f+1)*(d+1)], x) >= -ix.eps {
			return false
		}
	}
	return true
}

// strictlyInside is the exact check: x is strictly on the centroid's side
// of every facet.
func (ti *testIndex) strictlyInside(x geom.Point) bool {
	for i, fv := range ti.facets {
		if geom.OrientSimplex(ti.verts(fv), x) != ti.inside[i] {
			return false
		}
	}
	return true
}

// checkDirection asserts the index contract for direction u: the
// brute-force exit facet is listed in u's cell, and along the ray through
// u, around the exit boundary, the index drops every point the all-planes
// filter drops and drops only points exactly strictly inside the hull.
func (ti *testIndex) checkDirection(t *testing.T, u []float64) {
	t.Helper()
	ix := ti.ix
	d := ix.d
	cell := ix.cellOf(u)
	if cell < 0 {
		t.Fatalf("direction %v: no cell", u)
	}
	f := ti.exitFacet(u)
	if !ti.listed(cell, f) {
		t.Fatalf("direction %v: exit facet %d missing from cell %d", u, f, cell)
	}
	// The exit boundary of plane f along c + t·u: N·(c + t·u) = Off.
	row := ix.planes[f*(d+1) : (f+1)*(d+1)]
	nu := 0.0
	for j := 0; j < d; j++ {
		nu += row[j] * u[j]
	}
	if !(nu > 0) {
		return
	}
	tStar := -evalRow(row, ix.c[:d]) / nu
	ts := []float64{tStar * 0.5, tStar * (1 - 1e-6), tStar * (1 - 1e-12), tStar,
		math.Nextafter(tStar, 0), math.Nextafter(tStar, math.Inf(1)), tStar * (1 + 1e-12), tStar * 1.5}
	x := make(geom.Point, d)
	for _, tt := range ts {
		for j := 0; j < d; j++ {
			x[j] = ix.c[j] + tt*u[j]
		}
		ti.checkPoint(t, x)
	}
}

// checkPoint asserts the drop contract at one point.
func (ti *testIndex) checkPoint(t *testing.T, x geom.Point) {
	t.Helper()
	kept := ti.ix.keep(x)
	if ti.certifiedAll(x) && kept {
		t.Fatalf("x=%v: every plane certifies it but the index keeps it", x)
	}
	if !kept && !ti.strictlyInside(x) {
		t.Fatalf("x=%v: dropped by the index but not strictly inside the hull", x)
	}
}

// adversarialDirections returns the cube-map edge cases of dimension d:
// axis rays, cube edges and corners, ties |u_a| = |u_b|, bin boundaries of
// a g-bin grid, and one-ulp nudges of each.
func adversarialDirections(rng *rand.Rand, d, g int) [][]float64 {
	var out [][]float64
	add := func(u []float64) {
		out = append(out, u)
		for j := range u {
			for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
				v := append([]float64(nil), u...)
				v[j] = math.Nextafter(v[j], dir)
				out = append(out, v)
			}
		}
	}
	// Every sign pattern over {-1, 0, 1}^d except zero: axes, edges, corners.
	total := 1
	for j := 0; j < d; j++ {
		total *= 3
	}
	for code := 1; code < total; code++ {
		u := make([]float64, d)
		c, zero := code, true
		for j := 0; j < d; j++ {
			u[j] = float64(c%3 - 1)
			zero = zero && u[j] == 0
			c /= 3
		}
		if !zero {
			add(u)
		}
	}
	// Ties of the two largest magnitudes, other axes random.
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			u := make([]float64, d)
			for j := range u {
				u[j] = rng.Float64()*1.8 - 0.9
			}
			m := 1 + rng.Float64()
			u[a], u[b] = m, -m
			add(u)
		}
	}
	// Bin boundaries of the face coordinates.
	for k := 0; k <= g; k++ {
		u := make([]float64, d)
		u[0] = 1
		for j := 1; j < d; j++ {
			u[j] = -1 + 2*float64(k)/float64(g)
		}
		add(u)
	}
	return out
}

// TestCullIndexExitFacetListed is the index soundness property: for random
// and adversarial directions, the brute-force exit facet is in the looked-up
// cell's list, and the index drops exactly-interior points only.
func TestCullIndexExitFacetListed(t *testing.T) {
	for _, tc := range []struct {
		d, n int
		gs   []int
	}{
		{2, 300, []int{0, 1, 2, 8}},
		{2, cullBase, []int{0}},
		{3, 300, []int{0, 1, 2, 8}},
		{3, cullBase, []int{0}},
		{4, 300, []int{0, 4}},
		{5, 120, []int{0, 2}},
	} {
		if tc.d == 5 && raceEnabled {
			continue
		}
		for _, g := range tc.gs {
			d := tc.d
			t.Run(fmt.Sprintf("d=%d/n=%d/g=%d", d, tc.n, g), func(t *testing.T) {
				rng := pointgen.NewRNG(int64(100 + d))
				pts := pointgen.UniformBall(rng, tc.n, d)
				ti := newTestIndex(t, pts, g)
				dirs := adversarialDirections(rng, d, ti.ix.g)
				// Keep the exact checks affordable where hulls are large.
				rng.Shuffle(len(dirs), func(i, j int) { dirs[i], dirs[j] = dirs[j], dirs[i] })
				dirs = dirs[:min(len(dirs), 400)]
				for i := 0; i < 300; i++ {
					u := make([]float64, d)
					for j := range u {
						u[j] = rng.NormFloat64()
					}
					dirs = append(dirs, u)
				}
				for _, u := range dirs {
					ti.checkDirection(t, u)
				}
			})
		}
	}
}

// TestCullIndexUncertainPlanes covers a cloud far from the origin, where
// the certification threshold is large against the clearances: planes
// whose ĝ cannot be placed sit in every cell, and the contract still holds.
func TestCullIndexUncertainPlanes(t *testing.T) {
	for _, off := range []float64{1e3, 1e5} {
		t.Run(fmt.Sprint(off), func(t *testing.T) {
			rng := pointgen.NewRNG(7)
			pts := pointgen.UniformBall(rng, 400, 3)
			for _, p := range pts {
				p[0] += off
				p[1] -= off
			}
			ti := newTestIndex(t, pts, 0)
			for _, u := range adversarialDirections(rng, 3, ti.ix.g) {
				ti.checkDirection(t, u)
			}
			for i := 0; i < 2000; i++ {
				ti.checkPoint(t, pts[rng.Intn(len(pts))])
			}
		})
	}
}

// FuzzCullIndex fuzzes the index contract over the dimension, the cloud,
// the grid and the direction.
func FuzzCullIndex(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(3), 1.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(int64(2), uint8(0), uint8(0), 1.0, 1.0, 0.0, 0.0, 0.0)
	f.Add(int64(3), uint8(2), uint8(2), 1.0, -1.0, 1.0, -1.0, 0.0)
	f.Add(int64(4), uint8(3), uint8(4), 0.5, 0.5, -0.25, 1e-100, 3.0)
	f.Fuzz(func(t *testing.T, seed int64, rawD, rawG uint8, u0, u1, u2, u3, u4 float64) {
		d := 2 + int(rawD)%4
		g := 1 << (int(rawG) % 6)
		u := []float64{u0, u1, u2, u3, u4}[:d]
		zero := true
		for _, v := range u {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 || (v != 0 && math.Abs(v) < 1e-150) {
				t.Skip("direction out of range")
			}
			zero = zero && v == 0
		}
		if zero {
			t.Skip("zero direction")
		}
		ti := fuzzIndex(t, seed%8, d, g)
		ti.checkDirection(t, u)
	})
}

// fuzzIndexes caches FuzzCullIndex's indexes: the fuzzer varies the cloud
// over eight seeds only, so its executions go to directions, not hulls.
var fuzzIndexes = struct {
	sync.Mutex
	m map[[3]int64]*testIndex
}{m: map[[3]int64]*testIndex{}}

func fuzzIndex(t *testing.T, seed int64, d, g int) *testIndex {
	key := [3]int64{seed, int64(d), int64(g)}
	fuzzIndexes.Lock()
	defer fuzzIndexes.Unlock()
	if ti := fuzzIndexes.m[key]; ti != nil {
		return ti
	}
	ti := newTestIndex(t, pointgen.UniformBall(pointgen.NewRNG(seed), 200, d), g)
	fuzzIndexes.m[key] = ti
	return ti
}

// nearFacetCloud is a cull-sized ball cloud of dimension d in which one
// point per sample-hull facet (after the sample prefix) is replaced by a
// point on that facet (a rounded convex combination of its vertices) or one
// ulp off it, so the scan meets points within rounding of its planes. One
// point per facet keeps the cloud free of the coplanar clusters the engines
// reject.
func nearFacetCloud(t *testing.T, seed int64, n, d int) []geom.Point {
	t.Helper()
	rng := pointgen.NewRNG(seed)
	pts := testCloud(rng, n, d)
	m := sampleSize(n)
	rows, _, err := hullRows(Config{}, d, pts[:m], nil)
	if err != nil {
		t.Fatal(err)
	}
	facets := splitRows(rows, d)
	for i, fv := range facets {
		w := make([]float64, d)
		sum := 0.0
		for k := range w {
			w[k] = rng.Float64()
			sum += w[k]
		}
		p := make(geom.Point, d)
		for k, v := range fv {
			for j := 0; j < d; j++ {
				p[j] += w[k] / sum * pts[v][j]
			}
		}
		switch i % 3 {
		case 1:
			p[i%d] = math.Nextafter(p[i%d], math.Inf(1))
		case 2:
			p[i%d] = math.Nextafter(p[i%d], math.Inf(-1))
		}
		pts[m+i*(n-m)/len(facets)] = p
	}
	return pts
}

// testCloud is the cull workload of the Reduce-level tests: a uniform ball
// for d <= 3, a Gaussian cloud above (its hull stays small enough for the
// exact comparisons).
func testCloud(rng *rand.Rand, n, d int) []geom.Point {
	if d <= 3 {
		return pointgen.UniformBall(rng, n, d)
	}
	return pointgen.Gaussian(rng, n, d)
}

// reducedHull returns the hull of the Reduce survivors as a facet-key
// multiset in original indices. With certified set (d <= 3 keeps it
// affordable), it also proves with the independent exact certifier that
// this hull is the hull of the whole cloud.
func reducedHull(t *testing.T, pts []geom.Point, keep []int32, certified bool) map[string]int {
	t.Helper()
	d := len(pts[0])
	sub := pts
	if keep != nil {
		sub = Gather(pts, keep)
	}
	back := func(v int32) int { return int(remap(keep, v)) }
	keys := map[string]int{}
	if d == 2 {
		res, err := hull2d.SeqCtx(nil, nil, sub, false)
		if err != nil {
			t.Fatal(err)
		}
		verts := make([]int, len(res.Vertices))
		for i, v := range res.Vertices {
			verts[i] = back(v)
		}
		if _, err := certify.Hull2D(pts, verts); certified && err != nil {
			t.Fatalf("reduced hull does not certify against the whole cloud: %v", err)
		}
		for k := range aliveEdges2D(res, keep) {
			keys[fmt.Sprint(k)]++
		}
		return keys
	}
	res, err := hulld.SeqCtx(nil, nil, sub, false)
	if err != nil {
		t.Fatal(err)
	}
	if certified {
		facets := make([][]int, len(res.Facets))
		for i, f := range res.Facets {
			for _, v := range f.Verts {
				facets[i] = append(facets[i], back(v))
			}
		}
		if _, err := certify.Hull(pts, facets, nil); err != nil {
			t.Fatalf("reduced hull does not certify against the whole cloud: %v", err)
		}
	}
	for k, c := range aliveFacetsD(res, keep) {
		keys[k] += c
	}
	return keys
}

// TestReduceCullMatchesNoCull runs the whole reduction, cull on and off,
// over clouds built to stress the cull's rounding (points on sample facets
// and one ulp off them, clouds scaled by 1e±150, clouds far from the
// origin) for d = 2..5: the survivors' hull must equal the NoCull hull, and
// for d <= 3 certify against the whole cloud.
func TestReduceCullMatchesNoCull(t *testing.T) {
	const n = cullMinN + 1000
	scaled := func(seed int64, d int, scale float64) []geom.Point {
		pts := testCloud(pointgen.NewRNG(seed), n, d)
		for _, p := range pts {
			for j := range p {
				p[j] *= scale
			}
		}
		return pts
	}
	offset := func(seed int64, d int, off float64) []geom.Point {
		pts := testCloud(pointgen.NewRNG(seed), n, d)
		for _, p := range pts {
			for j := range p {
				p[j] += off * float64(1-2*(j%2))
			}
		}
		return pts
	}
	for d := 2; d <= 5; d++ {
		if d == 5 && (testing.Short() || raceEnabled) {
			continue
		}
		// The engines' float filters need the d-th power of the coordinate
		// scale to stay finite and normal, so d >= 3 scales less than 1e±150
		// (TestCullGateExtremeScale covers the cull's own gate there).
		e := 150.0
		if d > 2 {
			e = math.Floor(280 / float64(d))
		}
		type cloud struct {
			name string
			gen  func() []geom.Point
		}
		clouds := []cloud{
			{"near-facets", func() []geom.Point { return nearFacetCloud(t, int64(40+d), n, d) }},
		}
		// Exact 5D hulls are slow; d = 5 runs the near-facet case only, and
		// not under the race detector.
		if d <= 4 {
			clouds = append(clouds,
				cloud{fmt.Sprintf("scale=1e%g", e), func() []geom.Point { return scaled(int64(50+d), d, math.Pow(10, e)) }},
				cloud{fmt.Sprintf("scale=1e-%g", e), func() []geom.Point { return scaled(int64(50+d), d, math.Pow(10, -e)) }},
				cloud{"offset=1e2", func() []geom.Point { return offset(int64(60+d), d, 1e2) }})
		}
		if d == 2 {
			clouds = append(clouds, cloud{"offset=1e6", func() []geom.Point { return offset(int64(60+d), d, 1e6) }})
		}
		if d == 3 {
			clouds = append(clouds, cloud{"offset=1e4", func() []geom.Point { return offset(int64(60+d), d, 1e4) }})
		}
		for _, c := range clouds {
			t.Run(fmt.Sprintf("d=%d/%s", d, c.name), func(t *testing.T) {
				pts := c.gen()
				on, err := Reduce(pts, Config{ZOrder: true})
				if err != nil {
					t.Fatal(err)
				}
				off, err := Reduce(pts, Config{ZOrder: true, NoCull: true})
				if err != nil {
					t.Fatal(err)
				}
				got := reducedHull(t, pts, on.Keep, d <= 3)
				want := reducedHull(t, pts, off.Keep, false)
				if len(got) != len(want) {
					t.Fatalf("cull on: %d hull facets, cull off: %d", len(got), len(want))
				}
				for k, m := range want {
					if got[k] != m {
						t.Fatalf("facet %s: multiplicity %d with the cull, %d without", k, got[k], m)
					}
				}
			})
		}
	}
}

// TestSampleIndexRecursive hulls a sample two recursion levels above
// cullBase and checks the recursion is exact: every vertex of the direct
// hull of the sample survives the inner culls, and the index holds one
// plane per direct hull facet.
func TestSampleIndexRecursive(t *testing.T) {
	m := 16 * cullBase
	for _, d := range []int{2, 3} {
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			pts := shuffledBall(int64(23+d), m, d)
			s := new(Scratch)
			c := &culler{pts: pts, d: d, eps: geom.StaticFilterEps(bound(t, pts)), cfg: Config{Scratch: s}, s: s}
			ok, err := c.sampleIndex(m)
			if err != nil || !ok {
				t.Fatalf("sampleIndex: ok=%v err=%v", ok, err)
			}
			if len(s.samp) == 0 || len(s.samp) > m/4 {
				t.Fatalf("inner cull kept %d of %d sample points", len(s.samp), m)
			}
			var verts []int32
			var facets int
			if d == 2 {
				res, err := hull2d.SeqCtx(nil, nil, pts, false)
				if err != nil {
					t.Fatal(err)
				}
				verts, facets = res.Vertices, len(res.Vertices)
			} else {
				res, err := hulld.SeqCtx(nil, nil, pts, false)
				if err != nil {
					t.Fatal(err)
				}
				verts, facets = res.Vertices, len(res.Facets)
			}
			checkKeep(t, s.samp, m, verts)
			if h := len(s.idx.gnorm); h != facets {
				t.Fatalf("index has %d planes, direct hull %d facets", h, facets)
			}
		})
	}
}

// TestCullGateExtremeScale checks the cull disables itself, without error,
// where the static filter has no finite threshold: d >= 3 clouds scaled by
// 1e±150, whose d-th coordinate powers overflow or underflow.
func TestCullGateExtremeScale(t *testing.T) {
	for d := 3; d <= 5; d++ {
		for _, scale := range []float64{1e150, 1e-150} {
			pts := shuffledBall(int64(70+d), cullMinN, d)
			for _, p := range pts {
				for j := range p {
					p[j] *= scale
				}
			}
			cand, err := cullInterior(pts, d, Config{Scratch: new(Scratch)})
			if err != nil || cand != nil {
				t.Fatalf("d=%d scale=%g: cand=%d err=%v, want the cull skipped", d, scale, len(cand), err)
			}
		}
	}
}
