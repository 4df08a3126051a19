package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"parhull"
)

// metric is one named value of the final result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one call as the checker sees it, compared once the reference
// digests are known.
type record struct {
	p, input int
	out      outcome
	err      error
}

// checker counts attempted and failed calls. A call fails when it returned
// an error, when its digest differs from the reference, or when its counters
// differ from the first call on the same input at the same worker count
// (they are deterministic, so a difference is a defect).
type checker struct {
	records []record
	failed  int
	notes   []string
}

func (c *checker) add(p, input int, o outcome, err error) {
	c.records = append(c.records, record{p: p, input: input, out: o, err: err})
}

func (c *checker) note(format string, args ...any) {
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// expect gives the reference digest of an input at worker count p and, when
// the counters must match as well, the reference counters (nil otherwise).
type expect func(p, input int) (digest string, c *counts)

// verify compares every recorded call against want; call it once.
func (c *checker) verify(want expect) {
	type key struct{ p, input int }
	first := map[key]counts{}
	for _, r := range c.records {
		if r.err != nil {
			c.failed++
			c.note("P=%d input %d: %v", r.p, r.input, r.err)
			continue
		}
		digest, wantCounts := want(r.p, r.input)
		if r.out.digest != digest {
			c.failed++
			c.note("P=%d input %d: digest %.12s, reference %.12s", r.p, r.input, r.out.digest, digest)
			continue
		}
		if wantCounts != nil && r.out.counts != *wantCounts {
			c.failed++
			c.note("P=%d input %d: counters %+v, reference %+v", r.p, r.input, r.out.counts, *wantCounts)
			continue
		}
		k := key{r.p, r.input}
		if prev, ok := first[k]; !ok {
			first[k] = r.out.counts
		} else if r.out.counts != prev {
			c.failed++
			c.note("P=%d input %d: counters %+v differ from an earlier call's %+v", r.p, r.input, r.out.counts, prev)
		}
	}
}

// first returns the first successful call on input at worker count p.
func (c *checker) first(p, input int) (outcome, bool) {
	for _, r := range c.records {
		if r.p == p && r.input == input && r.err == nil {
			return r.out, true
		}
	}
	return outcome{}, false
}

// passCounts sums the counters of the first successful call on every input
// at worker count p (the pass total that baseline.json pins).
func (c *checker) passCounts(p, inputs int) (counts, bool) {
	seen := make([]bool, inputs)
	var total counts
	got := 0
	for _, r := range c.records {
		if r.p == p && r.err == nil && !seen[r.input] {
			seen[r.input] = true
			total.add(r.out.counts)
			got++
		}
	}
	return total, got == inputs
}

// sample is one timed call.
type sample struct {
	input         int
	secs          float64
	points        int
	bytes, allocs uint64
}

// lane is one sequence of timed calls: an entry point (or the replay) at
// one worker count.
type lane struct {
	p       int // GOMAXPROCS during the call; checker records carry it too
	call    func(pts []parhull.Point) (output, error)
	chk     *checker
	samples []sample
	// after, when set, runs after each call, outside the timed section.
	after func(wall time.Duration)
}

// interleave runs whole passes over in, calling every input on each lane in
// turn, until budget has elapsed and every lane has made at least minOps
// calls. Alternating the lanes call by call spreads each one over the whole
// measuring time, so a slow spell of a shared host hits them alike. Only the
// call itself is timed; memory statistics, digests and checks are outside.
func interleave(lanes []*lane, in inputs, budget time.Duration, minOps int, sum *summarizer) {
	start := time.Now()
	for len(lanes[0].samples) < minOps || time.Since(start) < budget {
		for i, pts := range in.pass {
			for _, l := range lanes {
				runtime.GOMAXPROCS(l.p)
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				out, err := l.call(pts)
				dt := time.Since(t0)
				runtime.ReadMemStats(&m1)
				var o outcome
				if err == nil {
					o = sum.summarize(out)
				}
				l.chk.add(l.p, i, o, err)
				l.samples = append(l.samples, sample{
					input:  i,
					secs:   dt.Seconds(),
					points: len(pts),
					bytes:  m1.TotalAlloc - m0.TotalAlloc,
					allocs: m1.Mallocs - m0.Mallocs,
				})
				if l.after != nil {
					l.after(dt)
				}
			}
		}
	}
	runtime.GOMAXPROCS(2)
}

// warm runs one untimed pass on every lane and forgets its samples.
func warm(lanes []*lane, in inputs, sum *summarizer) {
	interleave(lanes, in, 0, len(in.pass), sum)
	for _, l := range lanes {
		l.samples = nil
	}
}

// steadyAllocs reduces the P=1 calls' runtime.MemStats deltas to the
// steady-state allocation per input: the least over the input's calls. A
// warm Builder allocates the same on every call except those that refill
// pools a collection has just emptied, and when collections strike differs
// from run to run. P=1 because there the schedule is fixed; at P=2 work
// stealing moves facets between worker arenas, which keep growing for many
// calls. The metrics are the medians over the inputs.
func steadyAllocs(samples []sample, inputs int) (bytes, allocs []float64) {
	bytes = make([]float64, inputs)
	allocs = make([]float64, inputs)
	for i := range bytes {
		bytes[i], allocs[i] = math.Inf(1), math.Inf(1)
	}
	for _, s := range samples {
		bytes[s.input] = min(bytes[s.input], float64(s.bytes))
		allocs[s.input] = min(allocs[s.input], float64(s.allocs))
	}
	return bytes, allocs
}

// minOps is the fewest timed calls per phase: whole passes, and at least
// three calls so a median exists on the one-input workloads.
func minOps(in inputs) int { return max(3, len(in.pass)) }

func secs(samples []sample) []float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = s.secs
	}
	return v
}

// median of v (v is not modified).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// maxRSS is the process's resident-set high-water mark in bytes.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// setup times the first call on fresh state k times: a new Builder and its
// first Build (the one-shot HullD/Hull2D latency), or the first call of a
// route that retains nothing. The previous round's state is collected first,
// so each round starts from the same heap and no two Builders are resident
// together. The last target stays open for the steady state.
func setup(w workload, in inputs, k int, chk *checker, sum *summarizer) ([]float64, target) {
	var times []float64
	var t target
	for j := 0; j < k; j++ {
		if t != nil {
			t.close()
			t = nil // unreachable before the collection, not after
		}
		runtime.GC()
		t0 := time.Now()
		t = newTarget(w, options(2))
		out, err := t.call(in.pass[in.setup])
		times = append(times, time.Since(t0).Seconds())
		var o outcome
		if err == nil {
			o = sum.summarize(out)
		}
		chk.add(2, in.setup, o, err)
	}
	return times, t
}

// setupRounds is how many fresh-state calls setup_s is the median of.
const setupRounds = 3

// endToEnd is the untraced run: set-up at P=2, then the steady state with
// P=2 and P=1 calls interleaved for the measuring time. It returns the
// end-to-end metrics; the calls are left in chk for verification.
func endToEnd(w workload, in inputs, seconds float64, chk *checker) map[string]metric {
	var sum summarizer
	runtime.GOMAXPROCS(2)
	rss0 := maxRSS()
	setupTimes, t2 := setup(w, in, setupRounds, chk, &sum)
	peak := maxRSS() - rss0

	// The P=1 target is a second Builder: a change of width rebuilds the
	// worker pool, so one Builder cannot serve both lanes warm.
	t1 := newTarget(w, options(1))
	p2 := &lane{p: 2, call: t2.call, chk: chk}
	p1 := &lane{p: 1, call: t1.call, chk: chk}
	warm([]*lane{p1}, in, &sum)
	interleave([]*lane{p2, p1}, in, time.Duration(seconds*float64(time.Second)), minOps(in), &sum)
	t2.close()
	t1.close()

	var totalSecs float64
	var points int
	for _, s := range p2.samples {
		totalSecs += s.secs
		points += s.points
	}
	bytes, allocs := steadyAllocs(p1.samples, len(in.pass))
	return map[string]metric{
		"build_s":              {median(secs(p2.samples)), "s"},
		"build_s_p1":           {median(secs(p1.samples)), "s"},
		"throughput_pts_per_s": {float64(points) / totalSecs, "1/s"},
		"setup_s":              {median(setupTimes), "s"},
		"alloc_bytes_per_op":   {median(bytes), "B"},
		"allocs_per_op":        {median(allocs), "count"},
		"peak_rss_mb":          {peak / (1 << 20), "MB"},
	}
}
