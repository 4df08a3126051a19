// Command perfbench is parhull's benchmark. It times the public entry points
// (Builder.Build, Builder.Build2D, Hull3DDegenerate) on seeded workloads at
// P=2 and P=1, checks every output against a reference, and prints the
// metrics named in BENCHMARK.json as the last line of standard output:
//
//	perfbench --workload ball3d-1m --seed 3 --seconds 8 --trace 0
//
// --trace 1 runs the per-layer replay instead. --check compares the
// default-seed outputs and counters with baseline.json; --pin certifies
// them with internal/certify and rewrites that file. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (all workloads for --check and --pin)")
	seed := fs.Int64("seed", defaultSeed, "workload seed: drives input generation only")
	seconds := fs.Float64("seconds", 8, "measuring time of one run")
	trace := fs.Int("trace", 0, "1 runs the per-layer replay instead of the end-to-end run")
	check := fs.Bool("check", false, "compare default-seed digests and counters with baseline.json; exit 1 on drift")
	pin := fs.String("pin", "", "certify the default-seed outputs and write the baseline to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	switch {
	case *check:
		return checkBaseline(selected, stdout, stderr)
	case *pin != "":
		return pinBaseline(selected, *pin, stderr)
	case *name == "":
		fmt.Fprintln(stderr, "perfbench: --workload is required")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	res, env := bench(selected[0], *seed, *seconds, *trace == 1)
	envLine, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "env %s\n", envLine)
	for _, n := range env.Notes {
		fmt.Fprintf(stderr, "perfbench: %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench runs one workload at one seed and verifies every call it made.
func bench(w workload, seed int64, seconds float64, trace bool) (result, runEnv) {
	in := generate(w, seed)
	var chk, rchk checker
	var m map[string]metric
	start, steal0 := time.Now(), stealSeconds()
	if trace {
		m = traced(w, in, seconds, &chk, &rchk)
	} else {
		m = endToEnd(w, in, seconds, &chk)
	}
	env := newRunEnv(w, seed, trace)
	env.HostSteal = (stealSeconds() - steal0) / (time.Since(start).Seconds() * float64(runtime.NumCPU()))
	if env.HostSteal > 0.05 {
		env.Notes = append(env.Notes, fmt.Sprintf("the host took %.0f%% of the CPU time while measuring: expect slow, noisy timings", 100*env.HostSteal))
	}
	runtime.GC() // free the measured state before the reference allocates its own

	ref, pinned, err := referenceDigests(w, in, seed)
	if err != nil {
		// Without a reference no call can be shown correct.
		env.Notes = append(env.Notes, fmt.Sprintf("reference failed: %v", err))
		n, _ := tally(&chk, &rchk)
		return result{Correct: false, Attempted: n, Failed: n, Metrics: m}, env
	}
	chk.verify(func(_, input int) (string, *counts) { return ref[input], nil })
	rchk.verify(func(p, input int) (string, *counts) {
		o, ok := chk.first(p, input)
		if !ok {
			return "entry point failed on this input", nil
		}
		return o.digest, &o.counts
	})
	if pinned != nil {
		env.Notes = append(env.Notes, pinned.drift(&chk, len(in.pass))...)
	}
	env.Notes = append(env.Notes, chk.notes...)
	for _, n := range rchk.notes {
		env.Notes = append(env.Notes, "replay diverged: "+n)
	}

	attempted, failed := tally(&chk, &rchk)
	env.Attempted, env.Failed = attempted, failed
	env.FailRatio = float64(failed) / float64(attempted)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, env
}

// referenceDigests returns the per-input reference digests: the certified
// ones pinned in baseline.json at the default seed, else a fresh reference
// run. The pinned entry is returned too, for the counter-drift report.
func referenceDigests(w workload, in inputs, seed int64) ([]string, *pinnedWorkload, error) {
	if seed == defaultSeed {
		if p, ok := pinnedBaseline().Workloads[w.name]; ok && len(p.Digests) == len(in.pass) {
			return p.Digests, &p, nil
		}
	}
	ref, err := reference(w, in)
	return ref, nil, err
}

// tally counts the calls of both checkers, after verification.
func tally(chk, rchk *checker) (attempted, failed int) {
	return len(chk.records) + len(rchk.records), chk.failed + rchk.failed
}
