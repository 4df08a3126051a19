package hulld

import (
	eng "parhull/internal/engine"
	"parhull/internal/geom"
)

// Reuse retains the heavy per-construction state of the parallel engine
// across Par calls: the work-stealing substrate (workers, arenas, scratch —
// see engine.Pool), the engine struct with its point store, recorder, and
// facet log, and the result-collection buffers. Passing the same Reuse via
// Options.Reuse makes repeated constructions recycle essentially everything
// they allocate; it is the internal half of the public parhull.Builder.
//
// Contract: a Reuse serializes constructions (one Par at a time), and each
// Par invalidates the previous Result obtained through it — facets, slices,
// and buffers are recycled in place. Close retires the worker pool; the last
// Result stays valid.
type Reuse struct {
	e    *engine
	pool *eng.Pool[Facet, []int32]

	// initial-hull and collection buffers, grow-only.
	base      []geom.Point
	inits     []*Facet
	created   []*Facet
	facets    []*Facet
	vertices  []int32
	inHull    []bool
	ridges    map[ridgeMapKey]int32
	ridgesCap int
	res       Result
}

// NewReuse returns an empty Reuse; all pooled state is created lazily by the
// first construction.
func NewReuse() *Reuse { return &Reuse{pool: eng.NewPool[Facet, []int32]()} }

// Close retires the retained worker pool. The Reuse must not be used again;
// the last Result remains valid (arenas are not scribbled).
func (ru *Reuse) Close() {
	if ru != nil {
		ru.pool.Close()
	}
}

// Reset rewinds the pooled arenas immediately, invalidating the previous
// Result obtained through this Reuse while keeping every retained buffer for
// the next construction. Optional — the next Par rewinds lazily anyway.
func (ru *Reuse) Reset() {
	if ru != nil {
		ru.pool.Reset()
	}
}

// engineFor returns the engine for this construction: a fresh one when ru is
// nil (the one-shot path), otherwise ru's retained engine rewound and
// reloaded. The rewind happens here — at the start of the next construction,
// not the end of the last — so an aborted or panicked construction needs no
// cleanup to keep the Reuse usable, and the previous Result stays valid
// until the next call.
func engineFor(ru *Reuse, pts []geom.Point, d int, counters bool, grain, stripes int, noPlane, batch, soa bool) *engine {
	if ru == nil {
		return newEngine(pts, d, counters, grain, stripes, noPlane, batch, soa)
	}
	ru.pool.Reset()
	if ru.e == nil {
		e := newEngine(pts, d, counters, grain, stripes, noPlane, batch, soa)
		e.ru = ru
		ru.e = e
		return e
	}
	e := ru.e
	e.pts = pts
	e.store.Load(pts)
	e.d = d
	e.grain = grain
	e.batch = batch
	e.soa = soa
	e.interior = nil
	e.planeEps = 0
	if !noPlane {
		e.planeEps = geom.StaticFilterEps(e.store.MaxAbs())
	}
	e.rec.Reset(counters)
	e.rec.SetPlaneCache(e.planeEps > 0)
	e.rec.MarkHeapBase()
	e.log.Reset()
	return e
}
