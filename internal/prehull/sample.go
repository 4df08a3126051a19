package prehull

import (
	"slices"
	"sort"

	"parhull/internal/conmap"
	"parhull/internal/engine"
	"parhull/internal/geom"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
)

// SampleEngine is retained parallel-engine state for the small hulls the
// pre-hull runs on every build: the cull's sample levels and the public
// layer's auto-mode probe. With one (Config.Engine), those hulls run on
// hulld.Par / hull2d.Par over the caller's Reuse and a ridge map kept here,
// so a warm caller allocates almost nothing for them; without one they run
// on the one-shot sequential kernel. The hull is the same either way
// (Theorem 5.5), and the cull reads its facets in a canonical order
// (hullRows), so the keep set is the same too.
//
// D and Two belong to the caller: each hull run through them invalidates the
// previous engine result obtained through the same Reuse.
type SampleEngine struct {
	D   *hulld.Reuse
	Two *hull2d.Reuse

	mapD *conmap.ShardedMap[*hulld.Facet]
	map2 *conmap.ShardedMap[*hull2d.Facet]
}

// hullD hulls a d >= 3 cloud on cfg.Engine, or with the sequential kernel
// when there is none.
func hullD(cfg Config, pts []geom.Point) (*hulld.Result, error) {
	e := cfg.Engine
	if e == nil || e.D == nil {
		return hulld.SeqCtx(cfg.Ctx, cfg.Inject, pts, cfg.NoPlaneCache)
	}
	if e.mapD == nil {
		e.mapD = conmap.NewShardedMap[*hulld.Facet](engine.DefaultMapCapacity(len(pts), len(pts[0])))
	} else {
		e.mapD.Reset()
	}
	return hulld.Par(pts, &hulld.Options{
		Map:          e.mapD,
		Workers:      cfg.Workers,
		NoCounters:   true,
		NoPlaneCache: cfg.NoPlaneCache,
		Ctx:          cfg.Ctx,
		Inject:       cfg.Inject,
		Reuse:        e.D,
	})
}

// hull2D is hullD for a 2D cloud.
func hull2D(cfg Config, pts []geom.Point) (*hull2d.Result, error) {
	e := cfg.Engine
	if e == nil || e.Two == nil {
		return hull2d.SeqCtx(cfg.Ctx, cfg.Inject, pts, cfg.NoPlaneCache)
	}
	if e.map2 == nil {
		e.map2 = conmap.NewShardedMap[*hull2d.Facet](engine.DefaultMapCapacity(len(pts), 0))
	} else {
		e.map2.Reset()
	}
	return hull2d.Par(pts, &hull2d.Options{
		Map:          e.map2,
		Workers:      cfg.Workers,
		NoCounters:   true,
		NoPlaneCache: cfg.NoPlaneCache,
		Ctx:          cfg.Ctx,
		Inject:       cfg.Inject,
		Reuse:        e.Two,
	})
}

// HullVertices returns the number of vertices of hull(pts), d = len(pts[0])
// >= 2, run on cfg.Engine when set — the public layer's auto-mode probe. It
// reads only Engine, Workers, NoPlaneCache, Ctx and Inject. The count is a
// property of the points, so it does not depend on the engine.
func HullVertices(pts []geom.Point, cfg Config) (int, error) {
	if len(pts) > 0 && len(pts[0]) == 2 {
		res, err := hull2D(cfg, pts)
		if err != nil {
			return 0, err
		}
		return len(res.Vertices), nil
	}
	res, err := hullD(cfg, pts)
	if err != nil {
		return 0, err
	}
	return len(res.Vertices), nil
}

// hullRows hulls pts (dimension d) and returns its facets in buf as
// canonical rows — stride d, each facet's vertex ids ascending, the rows in
// lexicographic order — together with the hull's vertex count. The engines
// list a facet's vertices, and the facets, in an order that depends on the
// schedule; the rows depend on the points alone, so every plane the cull
// computes from them is bit-identical whichever engine ran.
func hullRows(cfg Config, d int, pts []geom.Point, buf []int32) ([]int32, int, error) {
	rows := buf[:0]
	var verts int
	if d == 2 {
		res, err := hull2D(cfg, pts)
		if err != nil {
			return buf, 0, err
		}
		for _, f := range res.Facets {
			rows = append(rows, min(f.A, f.B), max(f.A, f.B))
		}
		verts = len(res.Vertices)
	} else {
		res, err := hullD(cfg, pts)
		if err != nil {
			return buf, 0, err
		}
		for _, f := range res.Facets {
			start := len(rows)
			rows = append(rows, f.Verts...)
			slices.Sort(rows[start:])
		}
		verts = len(res.Vertices)
	}
	sort.Sort(rowOrder{rows: rows, d: d})
	return rows, verts, nil
}

// rowOrder sorts flat rows of stride d lexicographically. Hull facets are
// distinct vertex sets, so the order is total and the unstable sort is
// deterministic.
type rowOrder struct {
	rows []int32
	d    int
}

func (r rowOrder) Len() int { return len(r.rows) / r.d }

func (r rowOrder) row(i int) []int32 { return r.rows[i*r.d : (i+1)*r.d] }

func (r rowOrder) Less(i, j int) bool { return slices.Compare(r.row(i), r.row(j)) < 0 }

func (r rowOrder) Swap(i, j int) {
	a, b := r.row(i), r.row(j)
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}
