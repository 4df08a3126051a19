package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"parhull"
	"parhull/internal/certify"
)

// baselineJSON pins, per workload at the default seed, the certified output
// digests and the deterministic counters of one pass at P=2 and at P=1.
//
//go:embed baseline.json
var baselineJSON []byte

type pinnedWorkload struct {
	Digests   []string `json:"digests"`
	CountsP2  counts   `json:"counts_p2"`
	CountsP1  counts   `json:"counts_p1"`
	Certified string   `json:"certified_by"`
}

type baselineFile struct {
	Seed        int64                     `json:"seed"`
	LibrarySeed int64                     `json:"library_seed"`
	Workloads   map[string]pinnedWorkload `json:"workloads"`
}

var pinnedBaseline = sync.OnceValue(func() baselineFile {
	var b baselineFile
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		panic(fmt.Sprintf("embedded baseline.json: %v", err)) // a build defect
	}
	if b.Seed != defaultSeed || b.LibrarySeed != librarySeed {
		panic("embedded baseline.json pins other seeds than the benchmark uses")
	}
	return b
})

// drift reports the pass counters in chk that differ from the pinned ones.
func (p *pinnedWorkload) drift(chk *checker, inputs int) []string {
	var notes []string
	for _, c := range []struct {
		p    int
		want counts
	}{{2, p.CountsP2}, {1, p.CountsP1}} {
		if got, ok := chk.passCounts(c.p, inputs); ok && got != c.want {
			notes = append(notes, fmt.Sprintf("counter drift at P=%d: %+v, pinned %+v", c.p, got, c.want))
		}
	}
	return notes
}

// onePass calls a fresh target once per input at worker count p and returns
// the pass's wall time; keep, when non-nil, sees every output before the
// next call recycles it.
func onePass(w workload, in inputs, p int, chk *checker, keep func(i int, o output)) time.Duration {
	runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(2)
	var sum summarizer
	t := newTarget(w, options(p))
	defer t.close()
	var wall time.Duration
	for i, pts := range in.pass {
		t0 := time.Now()
		out, err := t.call(pts)
		wall += time.Since(t0)
		var o outcome
		if err == nil {
			o = sum.summarize(out)
			if keep != nil {
				keep(i, out)
			}
		}
		chk.add(p, i, o, err)
	}
	return wall
}

// checkBaseline is the counter-baseline check: one pass per workload at the
// default seed, at P=2 and P=1. A digest or counter that differs from
// baseline.json fails it; wall time is printed, not gated.
func checkBaseline(selected []workload, stdout, stderr io.Writer) int {
	base := pinnedBaseline()
	status := 0
	fmt.Fprintf(stdout, "%-16s %10s %10s  %s\n", "workload", "P=2 s", "P=1 s", "result")
	for _, w := range selected {
		pinned, ok := base.Workloads[w.name]
		if !ok {
			fmt.Fprintf(stdout, "%-16s %10s %10s  not pinned\n", w.name, "-", "-")
			status = 1
			continue
		}
		in := generate(w, defaultSeed)
		var chk checker
		wall2 := onePass(w, in, 2, &chk, nil)
		wall1 := onePass(w, in, 1, &chk, nil)
		if len(pinned.Digests) != len(in.pass) {
			chk.failed++
			chk.note("baseline pins %d inputs, the workload has %d", len(pinned.Digests), len(in.pass))
		} else {
			chk.verify(func(_, input int) (string, *counts) { return pinned.Digests[input], nil })
		}
		problems := append(chk.notes, pinned.drift(&chk, len(in.pass))...)
		verdict := "ok"
		if chk.failed > 0 || len(problems) > 0 {
			verdict = "DRIFT"
			status = 1
		}
		fmt.Fprintf(stdout, "%-16s %10.4f %10.4f  %s\n", w.name, wall2.Seconds(), wall1.Seconds(), verdict)
		for _, p := range problems {
			fmt.Fprintf(stderr, "  %s: %s\n", w.name, p)
		}
	}
	return status
}

// pinBaseline runs every selected workload at the default seed, requires
// its outputs to match the Algorithm 2 reference, proves them correct with
// internal/certify, and writes the digests and pass counters to path. It
// writes nothing if any step fails.
func pinBaseline(selected []workload, path string, stderr io.Writer) int {
	base := pinnedBaseline()
	out := baselineFile{Seed: defaultSeed, LibrarySeed: librarySeed, Workloads: map[string]pinnedWorkload{}}
	for k, v := range base.Workloads {
		out.Workloads[k] = v
	}
	var jobs []func() error
	for _, w := range selected {
		in := generate(w, defaultSeed)
		ref, err := reference(w, in)
		if err != nil {
			fmt.Fprintf(stderr, "%s: reference: %v\n", w.name, err)
			return 1
		}
		var chk checker
		var cert string
		onePass(w, in, 2, &chk, func(i int, o output) {
			job, name := certifyJob(w.name, i, in.pass[i], o)
			jobs, cert = append(jobs, job), name
		})
		onePass(w, in, 1, &chk, nil)
		chk.verify(func(_, input int) (string, *counts) { return ref[input], nil })
		if chk.failed > 0 {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, chk.notes)
			return 1
		}
		c2, _ := chk.passCounts(2, len(in.pass))
		c1, _ := chk.passCounts(1, len(in.pass))
		out.Workloads[w.name] = pinnedWorkload{Digests: ref, CountsP2: c2, CountsP1: c1, Certified: cert}
		fmt.Fprintf(stderr, "%s: matches the reference; %d outputs to certify\n", w.name, len(in.pass))
	}

	// Certification is exact and slow (every point against every facet), so
	// two jobs run at a time.
	errs := make(chan error, len(jobs))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for _, job := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(job func() error) {
			defer wg.Done()
			defer func() { <-sem }()
			errs <- job()
		}(job)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			fmt.Fprintf(stderr, "certification failed: %v\n", err)
			return 1
		}
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 1
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 1
	}
	return 0
}

// certifyJob copies an output (the Builder recycles it on the next call)
// and returns the certification of the copy, with the certifier's name.
func certifyJob(workload string, i int, pts []parhull.Point, o output) (func() error, string) {
	wrap := func(name string, err error) error {
		if err != nil {
			return fmt.Errorf("%s input %d: %s: %w", workload, i, name, err)
		}
		return nil
	}
	switch {
	case o.hull != nil:
		facets := make([][]int, len(o.hull.Facets))
		for j, f := range o.hull.Facets {
			facets[j] = append([]int(nil), f.Vertices...)
		}
		verts := append([]int(nil), o.hull.Vertices...)
		return func() error {
			_, err := certify.Hull(pts, facets, verts)
			return wrap("certify.Hull", err)
		}, "certify.Hull"
	case o.hull2d != nil:
		verts := append([]int(nil), o.hull2d.Vertices...)
		return func() error {
			_, err := certify.Hull2D(pts, verts)
			return wrap("certify.Hull2D", err)
		}, "certify.Hull2D"
	default:
		faces := make([][]int, len(o.faces))
		for j, f := range o.faces {
			faces[j] = append([]int(nil), f.Vertices...)
		}
		return func() error {
			return wrap("certify.CornerFaces", certify.CornerFaces(pts, faces))
		}, "certify.CornerFaces"
	}
}
