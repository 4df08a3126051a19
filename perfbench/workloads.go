package main

import (
	"math"
	"math/rand"

	"parhull"
	"parhull/internal/pointgen"
)

// librarySeed is the Options.Seed of every timed call. The workload seed
// only drives input generation; the library sees the generated points and
// this fixed shuffle seed, as a user with a pinned Options would.
const librarySeed = 7

// defaultSeed is the workload seed whose outputs and counters are pinned in
// baseline.json.
const defaultSeed = 1

// kind is the public entry point a workload times.
type kind int

const (
	kindBuild   kind = iota // Builder.Build on 3D points
	kindBuild2D             // Builder.Build2D
	kindDegen               // Hull3DDegenerate
)

// workload is one named set of inputs and the entry point that consumes
// them. One pass is every input once, in order; single-input workloads
// repeat their one input.
type workload struct {
	name string
	kind kind
	// gen returns the inputs of one pass and the index of the input the
	// setup measurement builds first on fresh state.
	gen func(rng *rand.Rand) (pass [][]parhull.Point, setup int)
}

func single(pts []parhull.Point) ([][]parhull.Point, int) {
	return [][]parhull.Point{pts}, 0
}

// workloads are the benchmark's inputs, in BENCHMARK.json's order. Each
// stresses a different layer; README.md lists which metric each layer moves.
var workloads = []workload{
	{
		// Interior-heavy: pre-hull and shuffle dominate; the engine sees only
		// the few thousand survivors.
		name: "ball3d-1m",
		kind: kindBuild,
		gen: func(rng *rand.Rand) ([][]parhull.Point, int) {
			return single(pointgen.UniformBall(rng, 1_000_000, 3))
		},
	},
	{
		// Every point is a vertex, so auto pre-hull turns itself off: the
		// engine, ridge map and scan kernels dominate.
		name: "sphere3d-100k",
		kind: kindBuild,
		gen: func(rng *rand.Rand) ([][]parhull.Point, int) {
			return single(pointgen.OnSphere(rng, 100_000, 3))
		},
	},
	{
		// Every point is a vertex of the 2D hull: per-facet costs of the 2D
		// kernel dominate.
		name: "circle2d-250k",
		kind: kindBuild2D,
		gen: func(rng *rand.Rand) ([][]parhull.Point, int) {
			return single(pointgen.OnCircle(rng, 250_000))
		},
	},
	{
		// One Builder over many small inputs that cross the auto pre-hull
		// threshold both ways: per-build fixed costs show.
		name: "stream3d-mixed",
		kind: kindBuild,
		gen:  genStream,
	},
	{
		// The only workload on the corner space and SpaceRounds. Three clouds
		// of 200 points on the faces of the unit cube: every hull face is a
		// coplanar polygon. Integer-lattice clouds were dropped here: the
		// rounds engine's work on them varies threefold with the insertion
		// order, so their timings do not compare across seeds.
		name: "degen3d-box",
		kind: kindDegen,
		gen: func(rng *rand.Rand) ([][]parhull.Point, int) {
			pass := make([][]parhull.Point, degenInputs)
			for i := range pass {
				pass[i] = pointgen.CoplanarBox3D(rng, degenN)
			}
			return pass, 0
		},
	},
}

const (
	degenInputs = 3
	degenN      = 200
)

// Stream sizes are stratified on the log scale rather than drawn, so every
// seed builds the same multiset of sizes and only the points and their order
// change: the per-build medians then compare across seeds.
const (
	streamInputs = 32
	streamMinN   = 1000
	streamMaxN   = 32768
)

// genStream alternates uniform-ball and on-sphere inputs over the size
// strata, in a seeded order. The setup input is the largest one, so the
// fresh Builder grows its pools to the pass's high-water mark.
func genStream(rng *rand.Rand) ([][]parhull.Point, int) {
	ratio := float64(streamMaxN) / streamMinN
	pass := make([][]parhull.Point, streamInputs)
	for i := range pass {
		n := int(math.Round(streamMinN * math.Pow(ratio, (float64(i)+0.5)/streamInputs)))
		if i%2 == 0 {
			pass[i] = pointgen.UniformBall(rng, n, 3)
		} else {
			pass[i] = pointgen.OnSphere(rng, n, 3)
		}
	}
	rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
	setup := 0
	for i, p := range pass {
		if len(p) > len(pass[setup]) {
			setup = i
		}
	}
	return pass, setup
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is one workload's generated pass.
type inputs struct {
	pass  [][]parhull.Point
	setup int
}

func generate(w workload, seed int64) inputs {
	pass, setup := w.gen(pointgen.NewRNG(seed))
	return inputs{pass: pass, setup: setup}
}

// options returns the documented defaults plus a fixed shuffle, at P=2
// (Workers 0: the pool follows GOMAXPROCS) or P=1 (Workers pinned to 1).
func options(p int) *parhull.Options {
	o := &parhull.Options{Shuffle: true, Seed: librarySeed}
	if p == 1 {
		o.Workers = 1
	}
	return o
}

// output is what one call returned; exactly one field is set.
type output struct {
	hull   *parhull.HullDResult
	hull2d *parhull.Hull2DResult
	faces  []parhull.Face3D
}

// target is one public entry point together with the state it retains
// between calls.
type target interface {
	call(pts []parhull.Point) (output, error)
	close()
}

// builderTarget times Builder.Build or Builder.Build2D on a retained Builder.
type builderTarget struct {
	b    *parhull.Builder
	is2D bool
}

func (t *builderTarget) call(pts []parhull.Point) (output, error) {
	if t.is2D {
		r, err := t.b.Build2D(pts)
		return output{hull2d: r}, err
	}
	r, err := t.b.Build(pts)
	return output{hull: r}, err
}

func (t *builderTarget) close() { t.b.Close() }

// degenTarget times Hull3DDegenerate, which retains nothing between calls.
type degenTarget struct{ opt *parhull.Options }

func (t *degenTarget) call(pts []parhull.Point) (output, error) {
	f, err := parhull.Hull3DDegenerate(pts, t.opt)
	return output{faces: f}, err
}

func (t *degenTarget) close() {}

// newTarget returns a fresh target for w under opt.
func newTarget(w workload, opt *parhull.Options) target {
	if w.kind == kindDegen {
		return &degenTarget{opt: opt}
	}
	return &builderTarget{b: parhull.NewBuilder(opt), is2D: w.kind == kindBuild2D}
}

// reference computes the per-input reference digests at a seed that has no
// pinned baseline. Hull workloads use Algorithm 2 alone (EngineSequential,
// PreHullOff: no pre-hull, scheduler or ridge map). Hull3DDegenerate has no
// engine choice; its reference is an unshuffled run, whose insertion order
// and rounds differ from the timed shuffled one while the final active set
// T(X) cannot.
func reference(w workload, in inputs) ([]string, error) {
	opt := &parhull.Options{Engine: parhull.EngineSequential, PreHull: parhull.PreHullOff, Shuffle: true, Seed: librarySeed}
	if w.kind == kindDegen {
		opt = &parhull.Options{}
	}
	t := newTarget(w, opt)
	defer t.close()
	var s summarizer
	out := make([]string, len(in.pass))
	for i, pts := range in.pass {
		o, err := t.call(pts)
		if err != nil {
			return nil, err
		}
		out[i] = s.summarize(o).digest
	}
	return out, nil
}
