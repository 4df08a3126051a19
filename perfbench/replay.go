package main

import (
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"

	"parhull"
	"parhull/internal/conmap"
	"parhull/internal/corner"
	"parhull/internal/engine"
	"parhull/internal/geom"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/pointgen"
	"parhull/internal/prehull"
	"parhull/internal/sched"
)

// span names one layer call the replay times from outside.
type span int

const (
	spanShuffle     span = iota // pointgen.PermInto + ApplyPermInto (pointgen.Perm on the degenerate route)
	spanValidate                // geom.ValidateCloud
	spanProbe                   // the auto pre-hull probe: hulld.SeqCtx / hull2d.SeqCtx on a prefix
	spanReduce                  // prehull.Reduce
	spanGather                  // index map-back + prehull.GatherInto
	spanHullD                   // hulld.Par
	spanHull2D                  // hull2d.Par
	spanNewSpace                // corner.NewSpace
	spanSpaceRounds             // engine.SpaceRoundsCtxInj
	spanFaces                   // corner.Faces
	numSpans
)

var spanNames = [numSpans]string{
	"pointgen.shuffle", "geom.validate", "parhull.probe", "prehull.reduce", "prehull.gather",
	"hulld.par", "hull2d.par", "corner.new_space", "engine.space_rounds", "corner.faces",
}

// The Builder's auto pre-hull rule (parhull.preHullMinN, preHullSample,
// preHullDense), restated here because the library keeps it unexported. The
// replay-equivalence check fails loudly if the two drift apart.
const (
	probeMinN   = 16384
	probeSample = 1024
	probeDense  = 4
)

// layerStats are the per-call counters of the replay.
type layerStats struct {
	inputPoints, enginePoints int
	culled, blocks, kept      int
	hull                      parhull.Stats // of hulld.Par or hull2d.Par
	configs, spaceCreated     int
	spaceRounds               int
	gcCycles                  uint64
	gcCPU                     float64
}

// replayer re-runs one public entry point's pipeline through each layer's
// own public function, on retained buffers mirroring the Builder's, and
// times every layer call. Its outputs must equal the entry point's.
type replayer struct {
	kind    kind
	workers int // Options.Workers of the replayed call

	order   []int
	work    []geom.Point
	phOrder []int
	phPts   []geom.Point
	ph      prehull.Scratch
	ruD     *hulld.Reuse
	ru2     *hull2d.Reuse
	mapD    *conmap.ShardedMap[*hulld.Facet]
	map2    *conmap.ShardedMap[*hull2d.Facet]
	cm      *mapCounters

	facets []parhull.Facet
	flat   []int
	verts  []int
	resD   parhull.HullDResult
	res2   parhull.Hull2DResult

	spans [numSpans]time.Duration
	stats layerStats
	gc    []metrics.Sample
}

func newReplayer(k kind, workers int) *replayer {
	return &replayer{
		kind: k, workers: workers,
		ruD: hulld.NewReuse(), ru2: hull2d.NewReuse(), cm: new(mapCounters),
		gc: []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}},
	}
}

func (r *replayer) close() {
	r.ruD.Close()
	r.ru2.Close()
}

// timed runs f and charges its wall time to s.
func (r *replayer) timed(s span, f func()) {
	t0 := time.Now()
	f()
	r.spans[s] += time.Since(t0)
}

// call replays one call on pts. Spans and counters describe this call only.
func (r *replayer) call(pts []parhull.Point) (output, error) {
	r.spans = [numSpans]time.Duration{}
	r.stats = layerStats{inputPoints: len(pts)}
	r.cm.reset()
	metrics.Read(r.gc)
	gc0, cpu0 := r.gc[0].Value.Uint64(), r.gc[1].Value.Float64()
	var out output
	var err error
	switch r.kind {
	case kindDegen:
		out, err = r.degen(pts)
	case kindBuild2D:
		out, err = r.build(pts, 2)
	default:
		d := 0
		if len(pts) > 0 {
			d = len(pts[0])
		}
		out, err = r.build(pts, d)
	}
	metrics.Read(r.gc)
	r.stats.gcCycles = r.gc[0].Value.Uint64() - gc0
	r.stats.gcCPU = r.gc[1].Value.Float64() - cpu0
	return out, err
}

// build mirrors Builder.Build / Build2D under options(p): the shuffle, the
// PreHullAuto stage (validation, probe, reduction, gather), the parallel
// engine on a retained sharded ridge map, and result collection.
func (r *replayer) build(pts []parhull.Point, d int) (output, error) {
	n := len(pts)
	var order []int
	var work []geom.Point
	r.timed(spanShuffle, func() {
		r.order = pointgen.PermInto(pointgen.NewRNG(librarySeed), n, r.order)
		order = r.order
		r.work = pointgen.ApplyPermInto(pts, order, r.work)
		work = r.work
	})
	if d >= 2 && n > 0 {
		var err error
		r.timed(spanValidate, func() { err = geom.ValidateCloud(work, d) })
		if err != nil {
			return output{}, err
		}
		var worth bool
		r.timed(spanProbe, func() { worth = probe(work, d) })
		if worth {
			var red *prehull.Reduction
			r.timed(spanReduce, func() {
				red, err = prehull.Reduce(work, prehull.Config{Workers: r.workers, ZOrder: true, Scratch: &r.ph})
			})
			if err != nil {
				return output{}, err
			}
			r.stats.culled = red.Culled
			if red.Keep != nil {
				r.timed(spanGather, func() {
					if cap(r.phOrder) < len(red.Keep) {
						r.phOrder = make([]int, len(red.Keep))
					}
					newOrder := r.phOrder[:len(red.Keep)]
					for i, k := range red.Keep {
						newOrder[i] = order[k]
					}
					r.phOrder = newOrder
					r.phPts = prehull.GatherInto(r.phPts, work, red.Keep)
				})
				work, order = r.phPts, r.phOrder
				r.stats.blocks, r.stats.kept = red.Blocks, len(red.Keep)
			}
		}
	}
	r.stats.enginePoints = len(work)
	if r.kind == kindBuild2D {
		return r.engine2D(work, order)
	}
	return r.engineD(work, order, d)
}

// probe is the PreHullAuto test: a serial hull over a prefix sample, and
// the reduction only when the sample is mostly interior.
func probe(work []geom.Point, d int) bool {
	if len(work) < probeMinN {
		return false
	}
	sample := work[:probeSample]
	var verts int
	if d == 2 {
		res, err := hull2d.SeqCtx(nil, nil, sample, false)
		if err != nil {
			return false
		}
		verts = len(res.Vertices)
	} else {
		res, err := hulld.SeqCtx(nil, nil, sample, false)
		if err != nil {
			return false
		}
		verts = len(res.Vertices)
	}
	return verts <= probeSample/probeDense
}

func (r *replayer) engineD(work []geom.Point, order []int, d int) (output, error) {
	if r.mapD == nil {
		r.mapD = conmap.NewShardedMap[*hulld.Facet](engine.DefaultMapCapacity(len(work), d))
	} else {
		r.mapD.Reset()
	}
	var res *hulld.Result
	var err error
	r.timed(spanHullD, func() {
		res, err = hulld.Par(work, &hulld.Options{
			Map:     countingMap[*hulld.Facet]{m: r.mapD, c: r.cm},
			Sched:   sched.KindSteal,
			Workers: r.workers,
			Reuse:   r.ruD,
		})
	})
	if err != nil {
		return output{}, err
	}
	res.Stats.PreHullBlocks, res.Stats.PreHullKept = r.stats.blocks, r.stats.kept
	r.stats.hull = res.Stats

	// Collection, as the Builder does it: facets carved from one flat
	// array, indices mapped back through the insertion order.
	need := 0
	for _, f := range res.Facets {
		need += len(f.Verts)
	}
	if cap(r.flat) < need {
		r.flat = make([]int, 0, need)
	}
	r.flat, r.facets, r.verts = r.flat[:0], r.facets[:0], r.verts[:0]
	for _, f := range res.Facets {
		start := len(r.flat)
		for _, v := range f.Verts {
			r.flat = append(r.flat, order[v])
		}
		r.facets = append(r.facets, parhull.Facet{Vertices: r.flat[start:len(r.flat):len(r.flat)]})
	}
	for _, v := range res.Vertices {
		r.verts = append(r.verts, order[v])
	}
	slices.Sort(r.verts)
	r.resD = parhull.HullDResult{Facets: r.facets, Vertices: r.verts, Stats: res.Stats}
	return output{hull: &r.resD}, nil
}

func (r *replayer) engine2D(work []geom.Point, order []int) (output, error) {
	if r.map2 == nil {
		r.map2 = conmap.NewShardedMap[*hull2d.Facet](engine.DefaultMapCapacity(len(work), 0))
	} else {
		r.map2.Reset()
	}
	var res *hull2d.Result
	var err error
	r.timed(spanHull2D, func() {
		res, err = hull2d.Par(work, &hull2d.Options{
			Map:     countingMap[*hull2d.Facet]{m: r.map2, c: r.cm},
			Sched:   sched.KindSteal,
			Workers: r.workers,
			Reuse:   r.ru2,
		})
	})
	if err != nil {
		return output{}, err
	}
	res.Stats.PreHullBlocks, res.Stats.PreHullKept = r.stats.blocks, r.stats.kept
	r.stats.hull = res.Stats
	r.verts = r.verts[:0]
	for _, v := range res.Vertices {
		r.verts = append(r.verts, order[v])
	}
	r.res2 = parhull.Hull2DResult{Vertices: r.verts, Stats: res.Stats}
	return output{hull2d: &r.res2}, nil
}

// degen mirrors Hull3DDegenerate: the corner space, the shuffled insertion
// order, the rounds engine over the space, and face threading.
func (r *replayer) degen(pts []parhull.Point) (output, error) {
	r.stats.enginePoints = len(pts)
	var s *corner.Space
	var err error
	r.timed(spanNewSpace, func() { s, err = corner.NewSpace(pts) })
	if err != nil {
		return output{}, err
	}
	var order []int
	r.timed(spanShuffle, func() { order = pointgen.Perm(pointgen.NewRNG(librarySeed), len(pts)) })
	var res *engine.SpaceResult
	r.timed(spanSpaceRounds, func() { res, err = engine.SpaceRoundsCtxInj(nil, nil, s, order) })
	if err != nil {
		return output{}, err
	}
	var faces []corner.Face
	r.timed(spanFaces, func() { faces, err = corner.Faces(s, res.Alive) })
	if err != nil {
		return output{}, err
	}
	r.stats.configs = s.NumConfigs()
	r.stats.spaceCreated = res.Created
	r.stats.spaceRounds = res.Rounds
	out := make([]parhull.Face3D, len(faces))
	for i, f := range faces {
		out[i] = parhull.Face3D{Vertices: f.Vertices}
	}
	return output{faces: out}, nil
}

// mapCounters are the ridge-map wrapper's counters, striped by key hash so
// the workers rarely share a cache line.
type mapCounters struct {
	stripes [16]struct {
		inserts, firsts, gets, busyNs atomic.Int64
		_                             [32]byte
	}
}

func (c *mapCounters) reset() {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.inserts.Store(0)
		s.firsts.Store(0)
		s.gets.Store(0)
		s.busyNs.Store(0)
	}
}

func (c *mapCounters) totals() (inserts, firsts, gets int64, busy time.Duration) {
	for i := range c.stripes {
		s := &c.stripes[i]
		inserts += s.inserts.Load()
		firsts += s.firsts.Load()
		gets += s.gets.Load()
		busy += time.Duration(s.busyNs.Load())
	}
	return inserts, firsts, gets, busy * busySampleEvery
}

// busySampleEvery: the wrapper reads the clock on one call in this many (by
// key hash), so the timing costs little and the sum is scaled back up.
const busySampleEvery = 16

// countingMap wraps the Builder's ridge map, counting calls and first
// arrivals and timing a hash-sampled share of the calls.
type countingMap[V comparable] struct {
	m conmap.RidgeMap[V]
	c *mapCounters
}

func (w countingMap[V]) InsertAndSet(k conmap.Key, v V) (bool, error) {
	h := k.Hash()
	s := &w.c.stripes[(h>>32)&15]
	s.inserts.Add(1)
	var first bool
	var err error
	if h>>60 == 0 {
		t0 := time.Now()
		first, err = w.m.InsertAndSet(k, v)
		s.busyNs.Add(int64(time.Since(t0)))
	} else {
		first, err = w.m.InsertAndSet(k, v)
	}
	if first {
		s.firsts.Add(1)
	}
	return first, err
}

func (w countingMap[V]) GetValue(k conmap.Key, not V) V {
	h := k.Hash()
	s := &w.c.stripes[(h>>32)&15]
	s.gets.Add(1)
	if h>>60 == 0 {
		t0 := time.Now()
		v := w.m.GetValue(k, not)
		s.busyNs.Add(int64(time.Since(t0)))
		return v
	}
	return w.m.GetValue(k, not)
}
