// Package prehull implements the input reduction used by the public layer
// before a full hull construction. It has two stages, a cull and a fallback,
// both of which only ever discard points that provably cannot be hull
// vertices, so the construction that follows produces the exact same final
// facets as a direct run — the pre-hull changes how much work reaches the
// engine, never what it outputs.
//
// Stage 1 (interior cull): hull a prefix sample of clamp(n/32, 2048,
// 32768) points, orient each sample facet's cached hyperplane
// (geom.NewFacetPlane) against the sample centroid, and drop every point the
// static float filter certifies strictly inside ALL sample facets. The
// sample hull is a subset of the true hull, so a point strictly interior to
// it is strictly interior to the full hull. Certification uses the
// worst-case threshold of geom.StaticFilterEps: an uncertified comparison
// keeps the point, so float rounding can only make the cull less effective,
// never wrong. A sample above 2048 points is itself hulled recursively: it
// is culled against the hull of its first quarter and only the survivors
// are hulled, which is exact because every vertex of the smaller hull
// survives. Two structures keep the scan near memory speed. A certified
// inscribed sphere around the centroid drops deep-interior points for one
// squared distance. Every other point looks up its direction from the
// centroid in a cube-map index (cullIndex) that lists the few facets that
// can be the exit facet of a ray in that direction; the point is dropped
// only when every listed plane certifies it, which is exactly as sound as
// testing all planes because the true exit facet is always listed. A
// point therefore pays a handful of inlined plane evaluations, not one
// per sample facet. When the cull reduces the input, its ascending
// survivors are the reduction: they go straight to the caller's parallel
// engine, whose optimal work and O(log n) depth settle the thin shell near
// the hull more cheaply than serial sub-hulls would.
//
// The sample hulls run on the caller's retained parallel engine when
// Config.Engine is set, else on the one-shot sequential kernel. Both build
// the same facets (Theorem 5.5) but list them, and each facet's vertices, in
// a schedule-dependent order, and a plane computed from a different vertex
// order can round differently. So the cull reads the facets canonically
// (hullRows): vertex ids ascending within a facet, facets in lexicographic
// order. Every plane, every index list, and so the keep set, is then a
// function of the points alone, identical on both paths.
//
// Stage 2 (block sub-hulls), the fallback: when the cull did not reduce the
// input — below its size floor, above geom.MaxPlaneDim, on a dense or
// degenerate sample, or at an uncertifiable scale — split the input into
// blocks, compute each block's hull with the sequential kernel — blocks in
// parallel on the work-stealing executor — and keep only the block-hull
// vertices (a point interior to its block's hull is interior to the full
// hull). This is ParGeo's concurrent-hull recipe (~8 blocks per worker,
// serial sub-hulls, flatten the survivors).
//
// For boundary-heavy inputs (on-sphere: every point a vertex) both stages
// would keep everything; stage 1 detects that from the sample hull density
// and disables itself, and the public layer's auto heuristic skips the
// pre-hull entirely.
//
// Failure discipline matches the engines (DESIGN.md §5): a degenerate block
// — a sub-hull that cannot be built because the block violates general
// position — is kept whole instead of failing the run (a safe
// over-approximation); cancellation is checked at stage boundaries and
// block boundaries and the first ctx error wins; a panic inside a sample or
// block sub-hull is contained (sched.Recovered / the executor) and surfaces
// as *sched.PanicError, never a crash.
package prehull

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"parhull/internal/faultinject"
	"parhull/internal/geom"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/sched"
)

const (
	// DefaultMinBlock is the serial-fallback threshold: Reduce never makes
	// blocks smaller than this (a sub-hull over a handful of points keeps
	// nearly all of them — pure overhead).
	DefaultMinBlock = 100
	// blockTarget caps the block size the auto rule aims for. 8 blocks per
	// worker is the ParGeo ratio, but at low worker counts it would make
	// enormous blocks whose serial sub-hulls dominate the run; ~32k-point
	// blocks measured fastest for the sequential kernel, so the auto rule
	// takes whichever of the two rules makes more blocks.
	blockTarget = 1 << 15
	// blocksPerWorker is the oversubscription factor of the block loop, so
	// uneven blocks load-balance across the executor's deques.
	blocksPerWorker = 8
)

// Config parameterizes one reduction.
type Config struct {
	// Workers is the width of every parallel pass: the stage-1 scans, the
	// sample hulls on Engine, and the block loop's executor (<= 0 selects
	// GOMAXPROCS).
	Workers int
	// MaxAbs, when it has one entry per dimension, is the per-dimension
	// absolute coordinate bound of pts (geom.ValidateCloudBound returns it),
	// which saves the cull a pass over the cloud. It must bound every point.
	MaxAbs []float64
	// Blocks overrides the automatic block count (<= 0 = auto: the max of
	// 8 per worker and survivors/32768, clamped so no block drops below
	// MinBlock).
	Blocks int
	// MinBlock overrides the smallest allowed block size (<= 0 selects
	// DefaultMinBlock).
	MinBlock int
	// ZOrder partitions the block stage spatially: survivors are presorted
	// along the Morton curve of their bounding box so each block is a
	// compact region (small sub-hulls, cache-coherent conflict scans)
	// instead of a random sample. Within a block, points keep their
	// relative input order, so the randomized-insertion guarantees of the
	// sub-hulls are preserved when the caller shuffled.
	ZOrder bool
	// NoCull disables the stage-1 interior cull (ablation; the block stage
	// alone is still exact).
	NoCull bool
	// NoPlaneCache disables the cached-hyperplane fast path inside the
	// sample and block sub-hulls (the A2 ablation; the survivors are
	// identical either way). The stage-1 point scan always uses the static
	// filter — with certification-or-keep semantics it needs no exact
	// fallback to stay sound.
	NoPlaneCache bool
	// Ctx, when non-nil, cancels the reduction cooperatively: checked at
	// stage and block boundaries here and at insertion granularity inside
	// the sub-hulls.
	Ctx context.Context
	// Inject arms deterministic fault injection inside the sample and block
	// sub-hulls (tests only; nil in production).
	Inject *faultinject.Injector
	// Scratch, when non-nil, recycles the reduction's large transient buffers
	// (cull masks, direction index, sample facet rows, survivor index lists,
	// gathered sample clouds) across Reduce calls. Each call invalidates the
	// Reduction of the previous call that used the same Scratch.
	Scratch *Scratch
	// Engine, when non-nil, hulls the cull's sample levels on retained
	// parallel-engine state instead of one-shot sequential sub-hulls (see
	// SampleEngine). The Reduction is identical either way.
	Engine *SampleEngine
}

// Scratch holds the pooled buffers of Config.Scratch. All slices are
// grow-only; the zero value is ready to use.
type Scratch struct {
	maxAbs   []float64
	idx      cullIndex
	sampMask []bool
	samp     []int32
	sampPts  []geom.Point
	rows     []int32
	keepMask []bool
	cand     []int32
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return sched.Workers()
}

func (c Config) minBlock() int {
	if c.MinBlock > 0 {
		return c.MinBlock
	}
	return DefaultMinBlock
}

func (c Config) ctxErr() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// BlockCount returns the number of blocks the block stage will use for n
// points: the configured override, or the auto rule described on
// Config.Blocks. A return below 2 means the input is too small to block up
// (the serial fallback).
func BlockCount(n int, cfg Config) int {
	b := cfg.Blocks
	if b <= 0 {
		b = blocksPerWorker * cfg.workers()
		if t := (n + blockTarget - 1) / blockTarget; t > b {
			b = t
		}
	}
	if cap := n / cfg.minBlock(); b > cap {
		b = cap
	}
	if b < 1 {
		b = 1
	}
	return b
}

// Reduction is the outcome of one pre-hull pass.
type Reduction struct {
	// Keep holds the indices of the surviving points, ascending — a
	// subsequence of the input order, so a shuffled input stays shuffled.
	// Nil when no reduction was performed (input too small; run directly).
	Keep []int32
	// Culled counts points dropped by the stage-1 interior filter.
	Culled int
	// Blocks is the number of block sub-hulls run; 1 when the block stage
	// did not run (the cull reduced the input, or it was too small to
	// block up).
	Blocks int
	// DegenerateBlocks counts blocks kept whole because their sub-hull
	// reported degenerate input (the safe over-approximation).
	DegenerateBlocks int
}

// Reduce runs the reduction over pts (dimension d = len(pts[0]) >= 2) and
// returns the surviving index set: the stage-1 cull's survivors when it
// reduced the input, otherwise the block stage's. The caller is responsible
// for validating the cloud first (NaN/Inf coordinates); degenerate geometry
// needs no pre-validation — a degenerate sample skips the cull and
// degenerate blocks are kept whole.
//
// Error surface: ctx cancellation returns the ctx error; a contained panic
// in a sample or block sub-hull returns a *sched.PanicError, so the public
// layer's containment contract sees exactly what a direct run would
// surface; sub-hull errors other than degeneracy (e.g. a bad coordinate)
// propagate as-is.
func Reduce(pts []geom.Point, cfg Config) (*Reduction, error) {
	n := len(pts)
	d := 0
	if n > 0 {
		d = len(pts[0])
	}
	if d < 2 {
		return &Reduction{Blocks: 1}, nil
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	if cfg.Scratch == nil {
		cfg.Scratch = new(Scratch)
	}

	// Stage 1: certified-interior cull. Its survivors are the reduction
	// whenever it reduced anything: they sit in a thin shell near the hull,
	// and the parallel engine settles them for less than block sub-hulls
	// would.
	cfg.Inject.Visit(faultinject.SitePreHullStage)
	if !cfg.NoCull {
		cand, err := cullInterior(pts, d, cfg)
		if err != nil {
			return nil, err
		}
		if err := cfg.ctxErr(); err != nil {
			return nil, err
		}
		if cand != nil {
			return &Reduction{Keep: cand, Culled: n - len(cand), Blocks: 1}, nil
		}
	}

	// Stage 2, the fallback: block sub-hulls over the whole input.
	cfg.Inject.Visit(faultinject.SitePreHullStage)
	keep, nb, degen, err := blockReduce(pts, d, cfg)
	if err != nil {
		return nil, err
	}
	return &Reduction{Keep: keep, Blocks: nb, DegenerateBlocks: degen}, nil
}

// blockReduce is stage 2: the parallel block sub-hull loop over work,
// returning the ascending block-survivor indices (into work), the block
// count, and the degenerate-block count. A nil keep with a nil error means
// the input was too small to block up (run it whole).
func blockReduce(work []geom.Point, d int, cfg Config) ([]int32, int, int, error) {
	n := len(work)
	nb := BlockCount(n, cfg)
	if nb < 2 {
		return nil, 1, 0, nil
	}

	// Partition: block b owns positions [b*n/nb, (b+1)*n/nb) of the input
	// order, or of the Z-order when spatial partitioning is on. Z blocks
	// re-sort their members ascending so each sub-hull inserts in the
	// caller's (random) relative order, and survivors merge back into a
	// subsequence of the input.
	var zperm []int32
	if cfg.ZOrder {
		zperm = geom.ZOrderPerm(work)
	}

	var (
		out     = make([][]int32, nb)
		degen   atomic.Int64
		errOnce sync.Once
		firstEr atomic.Pointer[error]
		failed  atomic.Bool
	)
	fail := func(err error) {
		errOnce.Do(func() { firstEr.Store(&err) })
		failed.Store(true)
	}

	body := func(_ int, b int) {
		if failed.Load() {
			return
		}
		// One visit per block, inside the executor: an armed panic here is
		// contained into a *sched.PanicError like any block sub-hull panic.
		cfg.Inject.Visit(faultinject.SitePreHullBlock)
		if err := cfg.ctxErr(); err != nil {
			fail(err)
			return
		}
		lo, hi := b*n/nb, (b+1)*n/nb
		var members []int32 // indices into work; nil when the block is contiguous
		var blockPts []geom.Point
		if zperm != nil {
			members = append([]int32(nil), zperm[lo:hi]...)
			sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
			blockPts = make([]geom.Point, len(members))
			for i, m := range members {
				blockPts[i] = work[m]
			}
		} else {
			blockPts = work[lo:hi]
		}
		verts, err := subHull(cfg, d, blockPts)
		switch {
		case err == nil:
			keep := make([]int32, len(verts))
			for i, v := range verts {
				if members != nil {
					keep[i] = members[v]
				} else {
					keep[i] = int32(lo) + v
				}
			}
			out[b] = keep
		case errors.Is(err, hull2d.ErrDegenerate) || errors.Is(err, hulld.ErrDegenerate):
			// The block cannot support a sub-hull (collinear, coplanar, too
			// small): keep every point. Correctness never depends on a block
			// actually reducing.
			degen.Add(1)
			if members != nil {
				out[b] = members
			} else {
				keep := make([]int32, hi-lo)
				for i := range keep {
					keep[i] = int32(lo + i)
				}
				out[b] = keep
			}
		default:
			fail(err)
		}
	}

	x := sched.NewExecutor(cfg.workers(), body)
	for b := 0; b < nb; b++ {
		x.Fork(sched.External, b)
	}
	x.Wait()
	if ep := firstEr.Load(); ep != nil {
		return nil, nb, int(degen.Load()), *ep
	}
	if err := x.Err(); err != nil {
		return nil, nb, int(degen.Load()), err // a contained *sched.PanicError
	}

	total := 0
	for _, part := range out {
		total += len(part)
	}
	keep := make([]int32, 0, total)
	for _, part := range out {
		keep = append(keep, part...)
	}
	if zperm != nil {
		// Blocks were spatial, so their survivor runs interleave in input
		// order; restore the global subsequence.
		sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
	}
	return keep, nb, int(degen.Load()), nil
}

// subHull runs the sequential kernel over one block and returns the
// block-local indices of its hull vertices (ascending).
func subHull(cfg Config, d int, pts []geom.Point) ([]int32, error) {
	if d == 2 {
		res, err := hull2d.SeqCtx(cfg.Ctx, cfg.Inject, pts, cfg.NoPlaneCache)
		if err != nil {
			return nil, err
		}
		// 2D vertices come back in CCW hull order; the caller wants the
		// ascending index subsequence.
		verts := append([]int32(nil), res.Vertices...)
		sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
		return verts, nil
	}
	res, err := hulld.SeqCtx(cfg.Ctx, cfg.Inject, pts, cfg.NoPlaneCache)
	if err != nil {
		return nil, err
	}
	return res.Vertices, nil
}

// Gather materializes the reduced cloud: out[i] = pts[keep[i]]. The point
// headers are shared with the input (coordinates are not copied); the
// engines copy coordinates into their own PointStore anyway.
func Gather(pts []geom.Point, keep []int32) []geom.Point {
	return GatherInto(nil, pts, keep)
}

// GatherInto is Gather writing into buf (reused when its capacity allows).
func GatherInto(buf []geom.Point, pts []geom.Point, keep []int32) []geom.Point {
	if cap(buf) < len(keep) {
		buf = make([]geom.Point, len(keep))
	}
	out := buf[:len(keep)]
	for i, k := range keep {
		out[i] = pts[k]
	}
	return out
}
