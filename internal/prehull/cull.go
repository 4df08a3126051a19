package prehull

import (
	"errors"
	"sync/atomic"

	"parhull/internal/geom"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/sched"
)

const (
	// cullBase is the smallest cull sample, hulled directly by the
	// sequential kernel; every larger sample is hulled recursively.
	cullBase = 2048
	// cullMinN disables the cull below this input size — with few points
	// per sample-hull facet the scan cannot pay for itself.
	cullMinN = 8 * cullBase
	// cullSampleDiv and cullSampleMax set the sample size,
	// clamp(n/cullSampleDiv, cullBase, cullSampleMax). A larger sample
	// leaves a thinner shell of survivors between its hull and the true
	// hull, and the recursion keeps its own hull cheap; past the cap the
	// serial sample hull costs more than the survivors it saves (EXPERIMENTS.md
	// E11 has the sweep).
	cullSampleDiv = 32
	cullSampleMax = 32768
	// cullDense disables the cull when a sample hull keeps more than
	// 1/cullDense of its sample (boundary-heavy input: nothing inside).
	cullDense = 4

	// cellsPerFacet sizes the direction index: about this many cells per
	// sample-hull facet, capped at maxCells. Finer grids shorten the lists
	// but the scan is bound by reading the cloud by then (E11).
	cellsPerFacet = 1
	maxCells      = 1 << 15
	// rowsPerFacet and rowsPerCell bound the index's total list length;
	// beyond it the grid is coarsened (see cullIndex.build).
	rowsPerFacet = 16
	rowsPerCell  = 16
	// cullGrain is the scan's chunk size.
	cullGrain = 4096
)

// sampleSize returns the cull sample length for n points.
func sampleSize(n int) int {
	return min(max(n/cullSampleDiv, cullBase), cullSampleMax)
}

// cullInterior is stage 1: it returns the ascending index list of points
// that survive the sample-hull interior filter, or nil when the cull is
// skipped (input too small, dimension uncached, degenerate or dense sample,
// uncertifiable planes, or nothing culled). Only errors that must abort the
// whole reduction (cancellation, injected panics, bad coordinates) are
// returned.
func cullInterior(pts []geom.Point, d int, cfg Config) ([]int32, error) {
	n := len(pts)
	if n < cullMinN || d > geom.MaxPlaneDim {
		return nil, nil
	}
	s := cfg.Scratch
	// Static certification threshold over the whole cloud (the planes are
	// evaluated against every point, so the bound must cover all of them).
	maxAbs := cfg.MaxAbs
	if len(maxAbs) != d {
		var err error
		if s.maxAbs, err = geom.ValidateCloudBound(pts, d, s.maxAbs); err != nil {
			return nil, err
		}
		maxAbs = s.maxAbs
	}
	eps := geom.StaticFilterEps(maxAbs)
	if eps <= 0 {
		return nil, nil
	}
	c := culler{pts: pts, d: d, eps: eps, cfg: cfg, s: s}
	ok, err := c.sampleIndex(sampleSize(n))
	if err != nil || !ok {
		return nil, err
	}
	s.keepMask = grow(s.keepMask, n)
	k, err := c.scan(pts, s.keepMask)
	if err != nil || k == n {
		return nil, err
	}
	s.cand = collect(s.cand, s.keepMask, k)
	return s.cand, nil
}

// culler carries one stage-1 run: the cloud, its certification threshold,
// and the Scratch whose index the sample levels rebuild in turn.
type culler struct {
	pts []geom.Point
	d   int
	eps float64
	cfg Config
	s   *Scratch
}

// sampleIndex builds s.idx over the hull of the prefix sample pts[:m]. A
// sample above cullBase is hulled recursively: cull it against the index of
// the hull of its first quarter (at least cullBase points), then hull only
// the survivors. That is
// exact — the survivors include every vertex of the sample hull, because a
// culled point is strictly inside a sub-hull of it — so the index always
// describes hull(pts[:m]) itself. false means the cull must be skipped.
func (c *culler) sampleIndex(m int) (bool, error) {
	sample := c.pts[:m]
	survivors := sample
	if m > cullBase {
		ok, err := c.sampleIndex(max(m/4, cullBase))
		if err != nil || !ok {
			return false, err
		}
		c.s.sampMask = grow(c.s.sampMask, m)
		k, err := c.scan(sample, c.s.sampMask)
		if err != nil {
			return false, err
		}
		if k < m {
			c.s.samp = collect(c.s.samp, c.s.sampMask, k)
			c.s.sampPts = GatherInto(c.s.sampPts, sample, c.s.samp)
			survivors = c.s.sampPts
		}
	}
	var verts int
	var herr error
	if perr := sched.Recovered(func() {
		c.s.rows, verts, herr = hullRows(c.cfg, c.d, survivors, c.s.rows)
	}); perr != nil {
		return false, perr
	}
	if herr != nil {
		if errors.Is(herr, hull2d.ErrDegenerate) || errors.Is(herr, hulld.ErrDegenerate) {
			return false, nil // flat sample: nothing certifiable, skip the cull
		}
		return false, herr
	}
	if verts > m/cullDense {
		return false, nil // boundary-heavy input: the cull would keep everything
	}
	return c.index(sample, survivors, c.s.rows), nil
}

// index orients every facet plane of the hull of hullPts against the
// centroid of the sample — strictly interior, so every facet must certify it
// strictly negative — and builds the direction index. rows holds the facets
// as hullRows returns them: d ids into hullPts per facet, in canonical
// order. Any facet the filter cannot certify against the centroid disables
// the whole cull: dropping single facets would be unsound.
func (c *culler) index(sample, hullPts []geom.Point, rows []int32) bool {
	d := c.d
	var centroid [geom.MaxPlaneDim]float64
	for _, p := range sample {
		for j := 0; j < d; j++ {
			centroid[j] += p[j]
		}
	}
	for j := 0; j < d; j++ {
		centroid[j] /= float64(len(sample))
	}
	ix := &c.s.idx
	nf := len(rows) / d
	planes := grow(ix.planes, nf*(d+1))
	var vp [geom.MaxPlaneDim]geom.Point
	for f := 0; f < nf; f++ {
		for i, v := range rows[f*d : (f+1)*d] {
			vp[i] = hullPts[v]
		}
		pl := geom.NewFacetPlane(vp[:d], c.eps)
		if !pl.Valid() {
			return false
		}
		sign, ok := pl.CertifiedSign(centroid[:d])
		if !ok {
			return false
		}
		row := planes[f*(d+1) : (f+1)*(d+1)]
		copy(row, pl.N[:d])
		row[d] = pl.Off
		if sign > 0 {
			for j := range row {
				row[j] = -row[j]
			}
		}
	}
	if !ix.load(d, c.eps, centroid[:d], planes) {
		return false
	}
	ix.build(gridFor(d, nf))
	return true
}

// scan applies s.idx to pts, setting keepMask[i] for each survivor, and
// returns the survivor count. It runs on the configured worker width.
func (c *culler) scan(pts []geom.Point, keepMask []bool) (int, error) {
	ix := &c.s.idx
	var kept atomic.Int64
	sched.ParallelForWidth(c.cfg.workers(), len(pts), cullGrain, func(lo, hi int) {
		if c.cfg.ctxErr() != nil {
			return // reported below
		}
		local := int64(0)
		for i := lo; i < hi; i++ {
			k := ix.keep(pts[i])
			keepMask[i] = k
			if k {
				local++
			}
		}
		kept.Add(local)
	})
	return int(kept.Load()), c.cfg.ctxErr()
}

// collect returns the ascending indices of the k set entries of mask, in
// buf.
func collect(buf []int32, mask []bool, k int) []int32 {
	if cap(buf) < k {
		buf = make([]int32, 0, k)
	}
	buf = buf[:0]
	for i, m := range mask {
		if m {
			buf = append(buf, int32(i))
		}
	}
	return buf
}
