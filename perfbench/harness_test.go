package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"slices"
	"testing"

	"parhull"
	"parhull/internal/pointgen"
)

// tiny workloads cover every entry point and every pipeline branch (the
// ball is above the auto pre-hull threshold, so the probe and the
// reduction run) at sizes that take milliseconds.
var tiny = []workload{
	{name: "tiny-ball", kind: kindBuild, gen: func(rng *rand.Rand) ([][]parhull.Point, int) {
		return single(pointgen.UniformBall(rng, 20000, 3))
	}},
	{name: "tiny-stream", kind: kindBuild, gen: func(rng *rand.Rand) ([][]parhull.Point, int) {
		return [][]parhull.Point{pointgen.OnSphere(rng, 300, 3), pointgen.UniformBall(rng, 500, 3)}, 1
	}},
	{name: "tiny-circle", kind: kindBuild2D, gen: func(rng *rand.Rand) ([][]parhull.Point, int) {
		return single(pointgen.OnCircle(rng, 2000))
	}},
	{name: "tiny-box", kind: kindDegen, gen: func(rng *rand.Rand) ([][]parhull.Point, int) {
		return single(pointgen.CoplanarBox3D(rng, 40))
	}},
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkloadsMatchSpec(t *testing.T) {
	var got, want []string
	for _, w := range readSpec(t).Workloads {
		want = append(want, w.Name)
	}
	for _, w := range workloads {
		got = append(got, w.name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
}

// Every named metric is emitted, with its unit and nothing else, by every
// entry point, and every call of a correct build passes the checks.
func TestEveryMetricEmittedWithUnit(t *testing.T) {
	spec := readSpec(t)
	for _, w := range tiny {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, env := bench(w, 3, 0.01, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, env.Notes)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.name, trace, name)
				}
			}
		}
	}
}

// corrupt wraps a target and damages what it returns.
type corrupt struct {
	target
	mode string
}

func (c corrupt) call(pts []parhull.Point) (output, error) {
	out, err := c.target.call(pts)
	if err != nil {
		return out, err
	}
	switch c.mode {
	case "error":
		return output{}, errors.New("injected failure")
	case "drop":
		switch {
		case out.hull != nil:
			r := *out.hull
			r.Facets = r.Facets[1:]
			out.hull = &r
		case out.hull2d != nil:
			r := *out.hull2d
			r.Vertices = r.Vertices[1:]
			out.hull2d = &r
		default:
			out.faces = out.faces[1:]
		}
	}
	return out, nil
}

// A dropped facet (vertex, face) and a returned error each count as a failed
// call in fail_ratio; the untouched calls around them do not.
func TestCorruptedResultsCountAsFailed(t *testing.T) {
	for _, w := range tiny {
		in := generate(w, 5)
		ref, err := reference(w, in)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"drop", "error"} {
			var chk, rchk checker
			var sum summarizer
			good := newTarget(w, options(2))
			interleave([]*lane{{p: 2, call: good.call, chk: &chk}}, in, 0, 1, &sum)
			bad := corrupt{newTarget(w, options(2)), mode}
			interleave([]*lane{{p: 2, call: bad.call, chk: &chk}}, in, 0, 3, &sum)
			good.close()
			bad.close()
			chk.verify(func(_, input int) (string, *counts) { return ref[input], nil })
			attempted, failed := tally(&chk, &rchk)
			wantBad := len(chk.records) - len(in.pass) // every call after the good pass
			if attempted != len(chk.records) || failed != wantBad {
				t.Errorf("%s %s: attempted=%d failed=%d, want %d and %d", w.name, mode, attempted, failed, len(chk.records), wantBad)
			}
			if ratio := float64(failed) / float64(attempted); ratio <= 0 {
				t.Errorf("%s %s: fail_ratio %v", w.name, mode, ratio)
			}
		}
	}
}

// The digests of the certified baseline are what the default-seed runs
// compare against, so the file must pin every workload at the seeds the
// benchmark uses.
func TestBaselinePinsEveryWorkload(t *testing.T) {
	b := pinnedBaseline()
	for _, w := range workloads {
		p, ok := b.Workloads[w.name]
		if !ok {
			t.Errorf("%s: not pinned", w.name)
			continue
		}
		if len(p.Digests) == 0 || p.Certified == "" {
			t.Errorf("%s: pinned entry incomplete: %+v", w.name, p)
		}
	}
}
