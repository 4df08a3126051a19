package main

import (
	"time"

	"parhull"
)

// hullTotals sums one hull engine's counters over calls.
type hullTotals struct {
	tests, fallbacks, created int64
	facets, maxDepth, points  int
}

func (h *hullTotals) add(st parhull.Stats, points int) {
	h.tests += st.VisibilityTests
	h.fallbacks += st.ExactFallbacks
	h.created += st.FacetsCreated
	h.facets += st.HullSize
	h.maxDepth = max(h.maxDepth, st.MaxDepth)
	h.points += points
}

// layerTotals accumulates the replay's spans and counters over timed calls.
type layerTotals struct {
	calls                     int
	wall                      time.Duration
	spans                     [numSpans]time.Duration
	inputPoints, enginePoints int
	culled, blocks, kept      int
	hulld, hull2d             hullTotals
	inserts, firsts, gets     int64
	busy                      time.Duration
	configs, spaceCreated     int
	spaceRounds               int
	gcCycles                  uint64
	gcCPU                     float64
}

func (t *layerTotals) add(r *replayer, wall time.Duration) {
	t.calls++
	t.wall += wall
	for i, d := range r.spans {
		t.spans[i] += d
	}
	st := &r.stats
	t.inputPoints += st.inputPoints
	t.enginePoints += st.enginePoints
	t.culled += st.culled
	t.blocks += st.blocks
	t.kept += st.kept
	switch r.kind {
	case kindBuild:
		t.hulld.add(st.hull, st.enginePoints)
	case kindBuild2D:
		t.hull2d.add(st.hull, st.enginePoints)
	}
	ins, first, gets, busy := r.cm.totals()
	t.inserts += ins
	t.firsts += first
	t.gets += gets
	t.busy += busy
	t.configs += st.configs
	t.spaceCreated += st.spaceCreated
	t.spaceRounds += st.spaceRounds
	t.gcCycles += st.gcCycles
	t.gcCPU += st.gcCPU
}

// ratio is a/b, or 0 when b is 0 (a layer that never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics names the per-layer metrics of one worker count; build is the
// untraced mean seconds per call in the same process.
func (t *layerTotals) metrics(build float64, suffix string, m map[string]metric) {
	calls := float64(t.calls)
	perCall := func(v float64) float64 { return v / calls }
	put := func(name string, v float64, unit string) { m[name+suffix] = metric{v, unit} }

	replay := perCall(t.wall.Seconds())
	var spanned time.Duration
	for i, d := range t.spans {
		spanned += d
		put(spanNames[i]+"_share", ratio(perCall(d.Seconds()), build), "ratio")
	}
	put("parhull.unattributed_share", ratio(build-perCall(spanned.Seconds()), build), "ratio")
	put("trace.replay_s", replay, "s")
	put("trace.coverage", ratio(spanned.Seconds(), t.wall.Seconds()), "ratio")
	put("trace.overhead", ratio(replay, build)-1, "ratio")

	put("prehull.culled", perCall(float64(t.culled)), "count")
	put("prehull.blocks", perCall(float64(t.blocks)), "count")
	put("prehull.kept", perCall(float64(t.kept)), "count")
	put("prehull.keep_ratio", ratio(float64(t.enginePoints), float64(t.inputPoints)), "ratio")

	for _, e := range []struct {
		prefix string
		h      *hullTotals
	}{{"hulld", &t.hulld}, {"hull2d", &t.hull2d}} {
		h := e.h
		put(e.prefix+".visibility_tests", perCall(float64(h.tests)), "count")
		put(e.prefix+".exact_fallbacks", perCall(float64(h.fallbacks)), "count")
		put(e.prefix+".facets_created", perCall(float64(h.created)), "count")
		put(e.prefix+".hull_facets", perCall(float64(h.facets)), "count")
		put(e.prefix+".facet_yield", ratio(float64(h.facets), float64(h.created)), "ratio")
		put(e.prefix+".tests_per_point", ratio(float64(h.tests), float64(h.points)), "ratio")
		put(e.prefix+".max_depth", float64(h.maxDepth), "count")
	}

	put("conmap.insert_calls", perCall(float64(t.inserts)), "count")
	put("conmap.get_calls", perCall(float64(t.gets)), "count")
	put("conmap.first_arrival_ratio", ratio(float64(t.firsts), float64(t.inserts)), "ratio")
	put("conmap.busy_share", ratio(perCall(t.busy.Seconds()), build), "ratio")

	put("corner.configs", perCall(float64(t.configs)), "count")
	put("engine.space_created", perCall(float64(t.spaceCreated)), "count")
	put("engine.space_rounds", perCall(float64(t.spaceRounds)), "count")

	put("runtime.gc_cycles", perCall(float64(t.gcCycles)), "count")
	put("runtime.gc_cpu_share", ratio(t.gcCPU, t.wall.Seconds()), "ratio")
}

// traced is the per-layer run. At each worker count it interleaves calls of
// the public entry point, untraced, with a replay of the same pipeline
// layer by layer, for half of the measuring time. Every replayed call must
// reproduce the entry point's digest and counters on the same input (the
// replay-equivalence guard), so a change to the Builder's pipeline breaks
// this run instead of leaving it to time a stale copy.
func traced(w workload, in inputs, seconds float64, chk, rchk *checker) map[string]metric {
	m := map[string]metric{}
	half := time.Duration(seconds / 2 * float64(time.Second))
	for _, p := range []int{2, 1} {
		var sum summarizer
		opt := options(p)
		t := newTarget(w, opt)
		rp := newReplayer(w.kind, opt.Workers)
		var tot layerTotals
		untraced := &lane{p: p, call: t.call, chk: chk}
		replay := &lane{p: p, call: rp.call, chk: rchk, after: func(wall time.Duration) { tot.add(rp, wall) }}
		lanes := []*lane{untraced, replay}
		warm(lanes, in, &sum)
		tot = layerTotals{}
		interleave(lanes, in, half, minOps(in), &sum)
		t.close()
		rp.close()

		var build float64
		for _, s := range untraced.samples {
			build += s.secs
		}
		build /= float64(len(untraced.samples))
		suffix := ""
		if p == 1 {
			suffix = ".p1"
		}
		tot.metrics(build, suffix, m)
	}
	return m
}
