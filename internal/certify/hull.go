package certify

import (
	"math"
	"sort"

	"parhull/internal/geom"
)

// interiorBall is a side-test shortcut for interior points: a ball around
// the centroid c of the facet vertices that lies strictly inside every
// facet, with c's exact side per facet. A point in the ball is on c's side
// of every facet, exactly: with e_F the exact linear form of the fresh plane,
// |e_F(c)| >= |Eval_F(c)| - eps/2 (StaticFilterEps is at least twice each
// of the coefficient error and the evaluation rounding), and |x - c| < 0.999·r with
// r <= (|Eval_F(c)| - eps)/|N_F| gives |N_F·(x - c)| < |Eval_F(c)| - eps, so
// e_F(x) keeps the sign of e_F(c) with a margin of eps/2, which covers the
// coefficient error; the 0.1% shrink absorbs the rounding of the distance
// and norm computations. The ball only skips tests whose answer it proves,
// so the certificate is unchanged.
type interiorBall struct {
	rest  []int // points outside the ball: these get side tests
	count int   // points inside the ball
	first int   // lowest such index
	side  []int // sign of OrientSimplex(facet, c) per facet
}

// interiorBall returns the ball of a facet list. It is empty (every point
// in rest) when the list is malformed (the main loop reports it) or the
// filter cannot certify c against some facet.
func (o *sideOracle) interiorBall(pts []geom.Point, facets [][]int) *interiorBall {
	b := &interiorBall{rest: make([]int, len(pts)), first: -1}
	for i := range b.rest {
		b.rest[i] = i
	}
	d := len(pts[0])
	c := make(geom.Point, d)
	k := 0
	for _, fv := range facets {
		if len(fv) != d {
			return b
		}
		for _, v := range fv {
			if v < 0 || v >= len(pts) {
				return b
			}
			for j := range c {
				c[j] += pts[v][j]
			}
			k++
		}
	}
	for j := range c {
		c[j] /= float64(k)
	}
	side := make([]int, len(facets))
	vp := make([]geom.Point, d)
	r := math.Inf(1)
	for fi, fv := range facets {
		for j, v := range fv {
			vp[j] = pts[v]
		}
		plane := geom.NewFacetPlane(vp, o.eps)
		s, ok := plane.CertifiedSign(c)
		if !plane.Valid() || !ok {
			return b
		}
		side[fi] = s
		norm := 0.0
		for j := 0; j < d; j++ {
			norm += plane.N[j] * plane.N[j]
		}
		if rf := (math.Abs(plane.Eval(c)) - o.eps) / math.Sqrt(norm); rf < r {
			r = rf
		}
	}
	if !(r > 0) || math.IsInf(r, 1) {
		return b
	}
	r2 := 0.999 * r * 0.999 * r
	b.rest, b.side = b.rest[:0], side
	for pi, p := range pts {
		dist2 := 0.0
		for j := 0; j < d; j++ {
			dx := p[j] - c[j]
			dist2 += dx * dx
		}
		if dist2 >= r2 {
			b.rest = append(b.rest, pi)
			continue
		}
		b.count++
		if b.first < 0 {
			b.first = pi
		}
	}
	return b
}

// sideOracle runs facet-vs-point side tests from raw input coordinates: a
// freshly built supporting plane screens each test, and anything the static
// filter cannot certify falls back to the exact rational orientation
// predicate. Nothing engine-computed is consulted.
type sideOracle struct {
	eps   float64
	stats Stats
}

func newSideOracle(pts []geom.Point) *sideOracle {
	d := len(pts[0])
	maxAbs := make([]float64, d)
	for _, p := range pts {
		for j, v := range p {
			if v < 0 {
				v = -v
			}
			if v > maxAbs[j] {
				maxAbs[j] = v
			}
		}
	}
	return &sideOracle{eps: geom.StaticFilterEps(maxAbs)}
}

// side returns the exact sign of OrientSimplex(vp, p).
func (o *sideOracle) side(plane *geom.Plane, vp []geom.Point, p geom.Point) int {
	o.stats.SideTests++
	if plane.Valid() {
		if s, ok := plane.CertifiedSign(p); ok {
			return s
		}
	}
	o.stats.ExactFallbacks++
	return geom.OrientSimplex(vp, p)
}

// checkFacetVerts validates one facet's vertex list: length d, in-range,
// distinct. Returns the sorted copy for ridge keying.
func checkFacetVerts(fi int, verts []int, d, n int) ([]int, *Error) {
	if len(verts) != d {
		return nil, violation(BadSupport, fi, -1, "facet has %d vertices, want %d", len(verts), d)
	}
	s := append([]int(nil), verts...)
	sort.Ints(s)
	for j, v := range s {
		if v < 0 || v >= n {
			return nil, violation(BadIndex, fi, v, "vertex index out of range [0,%d)", n)
		}
		if j > 0 && s[j-1] == v {
			return nil, violation(BadIndex, fi, v, "repeated vertex index")
		}
	}
	return s, nil
}

// ridgeKey encodes a sorted (d-1)-subset as a map key.
func ridgeKey(sorted []int, skip int) string {
	b := make([]byte, 0, 4*(len(sorted)-1))
	for j, v := range sorted {
		if j == skip {
			continue
		}
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// Hull certifies a d-dimensional convex-hull facet list (d = len(pts[0])
// >= 2) against the input cloud: every facet is supported by d affinely
// independent input points with every input point on one closed side
// (exact), and every ridge is shared by exactly two facets. In general
// position this proves the facet set IS the boundary complex of conv(pts)
// — see the package comment for the argument. vertices, when non-nil, must
// equal the sorted union of facet vertices.
func Hull(pts []geom.Point, facets [][]int, vertices []int) (Stats, error) {
	var st Stats
	if len(pts) == 0 {
		return st, violation(Incomplete, -1, -1, "empty input cloud")
	}
	d := len(pts[0])
	if d < 2 {
		return st, violation(Incomplete, -1, -1, "dimension %d < 2", d)
	}
	if len(facets) < d+1 {
		return st, violation(Incomplete, -1, -1, "%d facets cannot bound a %d-polytope (need >= %d)", len(facets), d, d+1)
	}
	o := newSideOracle(pts)
	ball := o.interiorBall(pts, facets)
	ridges := make(map[string]int, len(facets)*d)
	ridgeAt := make(map[string]int, len(facets)*d)
	onHull := make(map[int]bool, len(facets))
	vp := make([]geom.Point, d)
	own := make([]bool, len(pts))
	for fi, fv := range facets {
		sorted, cerr := checkFacetVerts(fi, fv, d, len(pts))
		if cerr != nil {
			return o.stats, cerr
		}
		for j, v := range fv {
			vp[j] = pts[v]
			onHull[v] = true
			own[v] = true
		}
		plane := geom.NewFacetPlane(vp, o.eps)
		pos, neg := -1, -1
		npos, nneg := 0, 0
		for _, pi := range ball.rest {
			if own[pi] {
				// The facet's own vertices lie on the plane by construction;
				// testing them costs a guaranteed exact fallback each.
				continue
			}
			switch o.side(&plane, vp, pts[pi]) {
			case 1:
				npos++
				if pos < 0 {
					pos = pi
				}
			case -1:
				nneg++
				if neg < 0 {
					neg = pi
				}
			}
		}
		for _, v := range fv {
			own[v] = false
		}
		if ball.count > 0 {
			if ball.side[fi] > 0 {
				npos += ball.count
				if pos < 0 {
					pos = ball.first
				}
			} else {
				nneg += ball.count
				if neg < 0 {
					neg = ball.first
				}
			}
		}
		if npos > 0 && nneg > 0 {
			// Some points are strictly on each side, so whichever way the
			// facet is oriented, the minority side is outside it.
			off := pos
			if npos > nneg {
				off = neg
			}
			return o.stats, violation(Outside, fi, off,
				"input point strictly outside facet (%d pos / %d neg side points)", npos, nneg)
		}
		if npos == 0 && nneg == 0 {
			return o.stats, violation(BadSupport, fi, -1,
				"facet vertices affinely dependent (every input point on its hyperplane)")
		}
		for j := range sorted {
			k := ridgeKey(sorted, j)
			ridges[k]++
			ridgeAt[k] = fi
		}
	}
	for k, c := range ridges {
		if c != 2 {
			return o.stats, violation(RidgeOpen, ridgeAt[k], -1, "ridge shared by %d facets, want 2", c)
		}
	}
	if vertices != nil {
		if len(vertices) != len(onHull) {
			return o.stats, violation(VertexSet, -1, -1,
				"vertex list has %d entries, facet union has %d", len(vertices), len(onHull))
		}
		for i, v := range vertices {
			if !onHull[v] {
				return o.stats, violation(VertexSet, -1, v, "listed vertex appears in no facet")
			}
			if i > 0 && vertices[i-1] >= v {
				return o.stats, violation(VertexSet, -1, v, "vertex list not sorted strictly ascending")
			}
		}
	}
	st.add(o.stats)
	return st, nil
}

// Hull2D certifies a 2D hull given as a CCW vertex cycle: indices valid and
// distinct, consecutive triples weakly counterclockwise with at least one
// strict turn, and no input point strictly right of any directed edge
// (exact). Together these prove the cycle is a counterclockwise walk of the
// boundary of conv(pts): every edge is a supporting line of the point set,
// so a skipped hull vertex or an interior vertex on the cycle always leaves
// some input point strictly right of some edge. Collinear triples are
// allowed because degenerate inputs (rounded cocircular clouds, duplicate
// points) legitimately place collinear points on the hull boundary.
func Hull2D(pts []geom.Point, vertices []int) (Stats, error) {
	var st Stats
	if len(vertices) < 3 {
		return st, violation(Incomplete, -1, -1, "%d hull vertices, need >= 3", len(vertices))
	}
	seen := make(map[int]bool, len(vertices))
	for _, v := range vertices {
		if v < 0 || v >= len(pts) {
			return st, violation(BadIndex, -1, v, "vertex index out of range [0,%d)", len(pts))
		}
		if seen[v] {
			return st, violation(BadIndex, -1, v, "repeated hull vertex")
		}
		seen[v] = true
	}
	h := len(vertices)
	strict := false
	for i := 0; i < h; i++ {
		a := pts[vertices[i]]
		b := pts[vertices[(i+1)%h]]
		c := pts[vertices[(i+2)%h]]
		switch s := geom.Orient2D(a, b, c); {
		case s < 0:
			return st, violation(NotConvex, i, vertices[(i+2)%h],
				"consecutive hull vertices turn clockwise")
		case s > 0:
			strict = true
		}
	}
	if !strict {
		return st, violation(NotConvex, -1, -1, "hull cycle is fully collinear")
	}
	o := newSideOracle(pts)
	vp := make([]geom.Point, 2)
	for i := 0; i < h; i++ {
		vp[0] = pts[vertices[i]]
		vp[1] = pts[vertices[(i+1)%h]]
		plane := geom.NewFacetPlane(vp, o.eps)
		for pi, p := range pts {
			// Orient2D(a, b, p) < 0 means p strictly right of the directed
			// edge a->b, i.e. outside a CCW polygon.
			if o.side(&plane, vp, p) < 0 {
				return o.stats, violation(Outside, i, pi, "input point strictly right of hull edge")
			}
		}
	}
	st.add(o.stats)
	return st, nil
}
