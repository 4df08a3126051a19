package prehull

import (
	"math"

	"parhull/internal/geom"
)

// cullIndex is the stage-1 filter of one sample hull: its oriented planes,
// the certified inscribed sphere around the interior witness c, and a
// direction index that maps every direction out of c to the few planes that
// can be the exit facet of a ray leaving c in that direction.
//
// Directions go through the hypercube map: v = x - c is assigned to the cube
// face of its largest |v_a| (2d faces), and the face coordinates v_b/|v_a| of
// the other d-1 axes are binned into g bins each, so there are 2d·g^(d-1)
// cells and one code path for every d.
//
// Soundness. Let e_F(y) = N_F·y - Off_F in exact arithmetic on the stored
// float coefficients and h_F = e_F + eps/2. geom.StaticFilterEps is at
// least twice each of its two parts, the coefficient error and the
// dot-product rounding, so a float Eval_F(x) < -eps implies h_F(x) < 0, and
// h_F(x) < 0 implies x is strictly inside the true sample facet F. Along the ray y = c + t·u, h_F is linear:
// h_F(c+tu) = -cl_F + t·N_F·u with cl_F = -h_F(c) > 0, so
// h_F(x)/cl_F = -1 + t·ĝ_F·u with ĝ_F = N_F/cl_F (the polar dual vertex of
// F around c). The F maximizing ĝ_F·u — the exit facet — therefore has the
// largest h_F(x)/cl_F of all planes: if it certifies x, every plane would.
// A cell drops F only when some reference plane R beats it throughout the
// cell: (ĝ_F - ĝ_R)·w + |ĝ_F - ĝ_R|·δ < 0, where w is the cell's central
// direction and δ bounds |u - w| over the cell. That never drops the exit
// facet of a direction in the cell. (It is the pairwise form of the
// polar-dual bound ĝ_F·w + |ĝ_F|·δ ≥ max_G(ĝ_G·w - |ĝ_G|·δ): the slack scales
// with |ĝ_F - ĝ_R| instead of |ĝ_F|, so a cell of width δ keeps the facets
// within about 2δ of it instead of 2√δ.) The float ĝ_F, the cell lookup of a
// point and the test itself carry rounding, so the test is loosened by the
// relative error ρ_F of each computed ĝ_F and by a margin that covers the
// lookup and the arithmetic: rounding can only grow a candidate list. A
// point is dropped only when every plane of its cell certifies it, so the
// index is exactly as sound as testing all planes.
type cullIndex struct {
	d    int
	eps  float64
	c    [geom.MaxPlaneDim]float64
	r2   float64 // certified inscribed-sphere radius squared (0: none)
	g    int     // bins per face axis, a power of two
	half float64 // g/2: face coordinate [-1, 1] -> bin scale

	span   []int32   // cell -> [lo, hi) rows, two entries per cell
	rows   []float64 // per-cell plane rows (stride d+1: N, Off), exit facet first
	budget int       // cap on len(rows) for the current build attempt

	// Build-time buffers, kept so a Scratch recycles them.
	planes []float64 // h oriented plane rows, stride d+1
	ghat   []float64 // h rows of ĝ_F, stride d
	gnorm  []float64 // |ĝ_F|
	rho    []float64 // relative error of ĝ_F; +Inf keeps F in every cell
	lists  [][]int32 // candidate list per refinement level
}

// indexMargin absorbs the rounding of the lookup (v = x - c, the face ratio
// and its bin), of δ itself and of the ĝ_F·w dot products. Each is a few
// ulps of a quantity of size <= 1; the margin is a million times that.
const indexMargin = 1e-9

// gridFor returns the bins per face axis for a sample hull of h facets in
// dimension d: the largest power of two whose 2d·g^(d-1) cells stay within
// cellsPerFacet·h (and within maxCells), so the index costs about as much
// to build as the hull it indexes.
func gridFor(d, h int) int {
	budget := cellsPerFacet * h
	if budget > maxCells {
		budget = maxCells
	}
	g := 1
	for cells(d, 2*g) <= budget {
		g *= 2
	}
	return g
}

// cells returns the cell count 2d·g^(d-1), saturating at maxCells+1.
func cells(d, g int) int {
	n := 2 * d
	for k := 1; k < d; k++ {
		n *= g
		if n > maxCells {
			return maxCells + 1
		}
	}
	return n
}

// load takes the oriented plane rows (stride d+1, each certified strictly
// negative at c) and computes the inscribed sphere and the per-plane ĝ_F,
// |ĝ_F| and ρ_F. It reports false when some plane does not certify c.
func (ix *cullIndex) load(d int, eps float64, c []float64, planes []float64) bool {
	ix.d, ix.eps, ix.planes = d, eps, planes
	copy(ix.c[:d], c)
	h := len(planes) / (d + 1)
	ix.ghat = grow(ix.ghat, h*d)
	ix.gnorm = grow(ix.gnorm, h)
	ix.rho = grow(ix.rho, h)
	rIn := math.Inf(1)
	for f := 0; f < h; f++ {
		row := planes[f*(d+1) : (f+1)*(d+1)]
		ev := evalRow(row, c)
		if !(ev < -eps) {
			return false
		}
		norm := 0.0
		for j := 0; j < d; j++ {
			norm += row[j] * row[j]
		}
		norm = math.Sqrt(norm)
		// Inscribed sphere: any point within 0.999·r of c, r = min over
		// planes of (-Eval(c) - eps)/|N|, satisfies Eval < -eps on every
		// plane (Cauchy-Schwarz on the exact linear form, with the eps
		// margin absorbing the evaluation error and the 0.1% shrink the
		// rounding of the distance and norm computations).
		if r := (-ev - eps) / norm; norm > 0 && r < rIn {
			rIn = r
		}
		// cl_F = -h_F(c) = -e_F(c) - eps/2 is known to within clErr; the
		// computed ĝ_F is then within a relative rho of the exact one.
		cl := -ev - eps/2
		clErr := eps/2*(1+indexMargin) + cl*indexMargin
		g := ix.ghat[f*d : (f+1)*d]
		gn := 0.0
		for j := 0; j < d; j++ {
			g[j] = row[j] / cl
			gn += g[j] * g[j]
		}
		gn = math.Sqrt(gn)
		ix.gnorm[f] = gn
		ix.rho[f] = math.Inf(1)
		if lo := cl - clErr; lo > 0 && gn > 0 && gn <= math.MaxFloat64 {
			ix.rho[f] = clErr/lo*(1+indexMargin) + indexMargin
		}
	}
	ix.r2 = 0
	if rIn > 0 && !math.IsInf(rIn, 1) {
		ix.r2 = 0.999 * rIn * 0.999 * rIn
	}
	return true
}

// build fills the direction index with at most g bins per face axis (a
// power of two). Cells are refined level by level, doubling the bins on
// every axis: a child cell tests only its parent's candidates, which is
// sound because the child's directions are a subset of the parent's, so
// every exit facet of the child is already in the parent's list and beats
// every other parent candidate. When the lists outgrow their budget (planes
// whose ĝ is too uncertain to place sit in every cell), the grid is halved,
// down to the 2d bare faces, whose lists hold at most 2d·h rows in all.
func (ix *cullIndex) build(g int) {
	for g > 1 && cells(ix.d, g) > maxCells {
		g /= 2
	}
	for !ix.buildGrid(g) {
		g /= 2
	}
}

// buildGrid is one build attempt at g bins; false when the row budget ran
// out (always true at g = 1).
func (ix *cullIndex) buildGrid(g int) bool {
	d := ix.d
	h := len(ix.gnorm)
	ix.g, ix.half = g, float64(g)/2
	nc := cells(d, g)
	ix.span = grow(ix.span, 2*nc)
	ix.rows = ix.rows[:0]
	ix.budget = (rowsPerFacet*h + rowsPerCell*nc) * (d + 1)
	if g == 1 {
		ix.budget = math.MaxInt
	}
	levels := 1
	for k := g; k > 1; k /= 2 {
		levels++
	}
	for len(ix.lists) < levels+1 {
		ix.lists = append(ix.lists, nil)
	}
	all := grow(ix.lists[0], h)
	for f := range all {
		all[f] = int32(f)
	}
	ix.lists[0] = all
	var bins [geom.MaxPlaneDim]int
	for face := 0; face < 2*d; face++ {
		if !ix.refine(face, bins[:d-1], 0, 1) {
			return false
		}
	}
	return true
}

// refine computes the candidate list of the cell with the given bins (one
// per non-face axis, in increasing axis order) at the level with gl bins
// per axis, from the level's parent list, and recurses into its children
// until the leaf level, where the list is copied into rows. It reports
// false when the rows outgrow the budget.
func (ix *cullIndex) refine(face int, bins []int, level, gl int) bool {
	d := ix.d
	a, s := face/2, 1.0
	if face%2 == 1 {
		s = -1
	}
	// Cell centre q on the face x_a = s, half-width hw per face axis (plus
	// the lookup margin), and the least norm over the cell box: the radial
	// projection is 1/|y|-Lipschitz, so |u - w| <= |p - q| / min|y|.
	var q [geom.MaxPlaneDim]float64
	hw := 1/float64(gl) + indexMargin
	q2, min2 := 1.0, 1.0
	k := 0
	for j := 0; j < d; j++ {
		if j == a {
			q[j] = s
			continue
		}
		qj := -1 + float64(2*bins[k]+1)/float64(gl)
		k++
		q[j] = qj
		q2 += qj * qj
		if m := math.Abs(qj) - hw; m > 0 {
			min2 += m * m
		}
	}
	qn := math.Sqrt(q2)
	for j := 0; j < d; j++ {
		q[j] /= qn
	}
	delta := math.Sqrt(float64(d-1))*hw/math.Sqrt(min2)*(1+indexMargin) + indexMargin

	// Reference plane: the best placeable plane at w. Every plane F with
	// (ĝ_F - ĝ_R)·u < 0 throughout the cell loses to R there, so it is not
	// an exit facet of the cell; the bound
	// (ĝ_F - ĝ_R)·u <= (ĝ_F - ĝ_R)·w + |ĝ_F - ĝ_R|·δ is tight for the
	// neighbours of R, which have nearly equal ĝ, so lists stay short.
	parent := ix.lists[level]
	ref, refGW := int32(-1), math.Inf(-1)
	for _, f := range parent {
		if math.IsInf(ix.rho[f], 1) {
			continue
		}
		gf := ix.ghat[int(f)*d : int(f)*d+d]
		gw := 0.0
		for j := 0; j < d; j++ {
			gw += gf[j] * q[j]
		}
		if gw > refGW {
			ref, refGW = f, gw
		}
	}
	list := ix.lists[level+1][:0]
	if ref >= 0 {
		// The likely exit facet goes first, so a point outside the sample
		// hull is usually kept after one evaluation.
		list = append(list, ref)
	}
	var gr []float64
	var refSlack float64
	if ref >= 0 {
		gr = ix.ghat[int(ref)*d : int(ref)*d+d]
		refSlack = (ix.rho[ref] + indexMargin) * ix.gnorm[ref]
	}
	for _, f := range parent {
		if f == ref {
			continue
		}
		if r := ix.rho[f]; ref >= 0 && !math.IsInf(r, 1) {
			gf := ix.ghat[int(f)*d : int(f)*d+d]
			dw, dn := 0.0, 0.0
			for j := 0; j < d; j++ {
				dj := gf[j] - gr[j]
				dw += dj * q[j]
				dn += dj * dj
			}
			if dw+math.Sqrt(dn)*delta+(r+indexMargin)*ix.gnorm[f]+refSlack < 0 {
				continue
			}
		}
		list = append(list, f)
	}
	ix.lists[level+1] = list

	if gl < ix.g {
		var child [geom.MaxPlaneDim]int
		return ix.children(face, bins, child[:d-1], 0, level+1, 2*gl)
	}
	cell := face
	for k := d - 2; k >= 0; k-- {
		cell = cell*ix.g + bins[k]
	}
	ix.span[2*cell] = int32(len(ix.rows) / (d + 1))
	for _, f := range list {
		ix.rows = append(ix.rows, ix.planes[int(f)*(d+1):int(f)*(d+1)+d+1]...)
	}
	ix.span[2*cell+1] = int32(len(ix.rows) / (d + 1))
	return len(ix.rows) <= ix.budget
}

// children enumerates the 2^(d-1) child cells of a cell (bins at the
// parent level) and refines each against the parent's list. The parent list
// lives at lists[level]; each child overwrites lists[level+1].
func (ix *cullIndex) children(face int, bins, child []int, k, level, gl int) bool {
	if k == len(bins) {
		return ix.refine(face, child, level, gl)
	}
	for b := 0; b < 2; b++ {
		child[k] = 2*bins[k] + b
		if !ix.children(face, bins, child, k+1, level, gl) {
			return false
		}
	}
	return true
}

// cellOf returns the index cell of the direction v = x - c, or -1 when v
// has no usable direction (zero or overflowed).
func (ix *cullIndex) cellOf(v []float64) int {
	a, m := 0, math.Abs(v[0])
	for j := 1; j < len(v); j++ {
		if t := math.Abs(v[j]); t > m {
			a, m = j, t
		}
	}
	if !(m > 0 && m <= math.MaxFloat64) {
		return -1
	}
	face := 2 * a
	if v[a] < 0 {
		face++
	}
	scale := ix.half / m
	cell := face
	for j := len(v) - 1; j >= 0; j-- {
		if j == a {
			continue
		}
		cell = cell*ix.g + ix.bin(v[j]*scale)
	}
	return cell
}

// bin maps a scaled face coordinate t = (v_b/|v_a|)·g/2 in [-g/2, g/2] to
// its bin, clamping the ends (rounding may push |t| a hair past g/2).
func (ix *cullIndex) bin(t float64) int {
	b := int(t + ix.half)
	if b < 0 {
		return 0
	}
	if b >= ix.g {
		return ix.g - 1
	}
	return b
}

// keep reports whether x survives the filter: false only when x is inside
// the certified inscribed sphere or every candidate plane of its direction
// cell certifies it strictly interior (Eval < -eps).
func (ix *cullIndex) keep(x []float64) bool {
	d := ix.d
	var v [geom.MaxPlaneDim]float64
	dist2 := 0.0
	for j := 0; j < d; j++ {
		v[j] = x[j] - ix.c[j]
		dist2 += v[j] * v[j]
	}
	if dist2 < ix.r2 {
		return false
	}
	cell := ix.cellOf(v[:d])
	if cell < 0 {
		return true
	}
	rows := ix.rows[int(ix.span[2*cell])*(d+1) : int(ix.span[2*cell+1])*(d+1)]
	eps := ix.eps
	switch d {
	case 2:
		x0, x1 := x[0], x[1]
		for k := 0; k+2 < len(rows); k += 3 {
			if rows[k]*x0+rows[k+1]*x1-rows[k+2] >= -eps {
				return true
			}
		}
	case 3:
		x0, x1, x2 := x[0], x[1], x[2]
		for k := 0; k+3 < len(rows); k += 4 {
			if rows[k]*x0+rows[k+1]*x1+rows[k+2]*x2-rows[k+3] >= -eps {
				return true
			}
		}
	default:
		for k := 0; k < len(rows); k += d + 1 {
			if evalRow(rows[k:k+d+1], x) >= -eps {
				return true
			}
		}
	}
	return false
}

// evalRow is geom.Plane.Eval on a flat row (N_0..N_{d-1}, Off).
func evalRow(row, x []float64) float64 {
	d := len(row) - 1
	s := -row[d]
	for j, nj := range row[:d] {
		s += nj * x[j]
	}
	return s
}

// grow returns b resized to n, reallocating only when its capacity is
// short (the contents are not preserved across a reallocation).
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
