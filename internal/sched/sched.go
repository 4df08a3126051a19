// Package sched provides the parallel execution substrate the hull engines
// run on. It stands in for the machine models of the paper: goroutines on
// Go's work-stealing runtime emulate the binary-forking model of Theorem 5.5
// (fork-join via Group), and a round-synchronous frontier executor emulates
// the CRCW PRAM execution of Theorem 5.4 (RunRounds), making the number of
// rounds — the recursion depth of Theorem 5.3 — directly observable.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the parallelism level used by this package: GOMAXPROCS.
func Workers() int { return runtime.GOMAXPROCS(0) }

// ParallelFor calls fn over disjoint subranges covering [0, n), in parallel.
// grain is the minimum chunk size (a value <= 0 selects a default). Chunks
// are handed out dynamically so irregular iterations load-balance.
//
// ParallelFor is panic-transparent: a panic in a chunk goroutine does not
// kill the process — the first one is captured (as a *PanicError), the
// remaining chunks are abandoned, and the panic is re-thrown on the calling
// goroutine after all bodies have returned, where the caller's containment
// layer (an Executor worker, a Group function, or a Recovered shim) turns it
// into a typed error.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	ParallelForWidth(Workers(), n, grain, fn)
}

// ParallelForWidth is ParallelFor on at most w goroutines (w <= 0 selects
// Workers()), for callers that pin their own parallelism.
func ParallelForWidth(w, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if w <= 0 {
		w = Workers()
	}
	if grain <= 0 {
		grain = 1 + n/(8*w)
	}
	if w == 1 || n <= grain {
		fn(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var fault atomic.Pointer[PanicError]
	body := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				fault.CompareAndSwap(nil, asPanicError(-1, "", r))
			}
		}()
		for {
			if fault.Load() != nil {
				return // a sibling chunk panicked; stop starting new work
			}
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	nw := w
	if maxChunks := (n + grain - 1) / grain; nw > maxChunks {
		nw = maxChunks
	}
	wg.Add(nw)
	for i := 0; i < nw; i++ {
		go body()
	}
	wg.Wait()
	if pe := fault.Load(); pe != nil {
		panic(pe)
	}
}

// Group is a bounded fork-join scope: Go either spawns fn on a fresh
// goroutine (if below the concurrency limit) or runs it inline, and Wait
// blocks until every spawned function has returned. It is the Fork/Join of
// the binary-forking model with a practical cap on live goroutines.
//
// The bound is on goroutines, not on pending work: at most limit functions
// ever run on Group-spawned goroutines at once, regardless of how many
// forks a computation issues or how deeply forks nest. Everything beyond
// the limit executes inline on the forking goroutine — a fork chain of
// depth k with limit 1 runs as ordinary nested calls on at most two
// goroutines (the caller plus one spawned), never k goroutines. This is
// what lets the hull engines fork one chain per ridge without tying memory
// to the ridge count (see TestGroupBoundsGoroutines for the contract).
//
// Panics are contained, never propagated: a panic in fn (spawned or inline)
// is converted to a *PanicError, the first one is retained for Err, and
// every subsequently forked function is dropped so the group drains and Wait
// returns promptly with no goroutine left behind.
type Group struct {
	wg  sync.WaitGroup
	sem chan struct{}

	failed  atomic.Bool
	errOnce sync.Once
	err     error
}

// NewGroup returns a Group allowing up to limit concurrently spawned
// functions (limit <= 0 selects 4*GOMAXPROCS). limit 1 still makes
// progress — excess forks run inline, they are never queued or dropped.
func NewGroup(limit int) *Group {
	if limit <= 0 {
		limit = 4 * Workers()
	}
	return &Group{sem: make(chan struct{}, limit)}
}

// fail records the first contained panic and flips the drain flag.
func (g *Group) fail(pe *PanicError) {
	g.errOnce.Do(func() { g.err = pe })
	g.failed.Store(true)
}

// protect runs fn with panic containment.
func (g *Group) protect(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			g.fail(asPanicError(-1, "", r))
		}
	}()
	fn()
}

// Go runs fn exactly once: concurrently when a slot is free and inline
// otherwise. Inline execution keeps the fork semantics (fn completes
// before some sibling forks proceed) without unbounded goroutine growth;
// the inline case returns only after fn returns, so callers may not assume
// Go is non-blocking. After a contained panic, fn is dropped (the group is
// draining toward Wait).
func (g *Group) Go(fn func()) {
	if g.failed.Load() {
		return
	}
	select {
	case g.sem <- struct{}{}:
		g.wg.Add(1)
		go func() {
			defer func() {
				<-g.sem
				g.wg.Done()
			}()
			g.protect(fn)
		}()
	default:
		g.protect(fn)
	}
}

// Wait blocks until all functions started with Go have completed, including
// functions they transitively spawned on g.
func (g *Group) Wait() { g.wg.Wait() }

// Failed cheaply reports whether a panic has been contained; chain loops
// poll it to stop doing real work while the group drains.
func (g *Group) Failed() bool { return g.failed.Load() }

// Err returns the first contained panic as a *PanicError, or nil. Call
// after Wait.
func (g *Group) Err() error { return g.err }

// RunRounds executes a frontier computation round-synchronously: every task
// in the current frontier runs (in parallel) exactly once per round, emitting
// tasks for the next round; a global barrier separates rounds. It returns
// the number of rounds executed. This mirrors the PRAM schedule in the proof
// of Theorem 5.4, so the return value is the empirical recursion depth of
// Algorithm 3 (Theorem 5.3).
func RunRounds[T any](initial []T, step func(task T, emitNext func(T))) int {
	rounds, _ := RunRoundsWidths(initial, step)
	return rounds
}

// RunRoundsWidths is RunRounds additionally reporting the frontier size of
// every round — the number of ProcessRidge calls that could run in parallel.
// The widths quantify the available parallelism (work/span) that Theorems
// 5.4/5.5 promise: total tasks spread over O(log n) rounds.
func RunRoundsWidths[T any](initial []T, step func(task T, emitNext func(T))) (int, []int) {
	frontier := initial
	rounds := 0
	var widths []int
	for len(frontier) > 0 {
		rounds++
		widths = append(widths, len(frontier))
		frontier = collectParallel(frontier, step)
	}
	return rounds, widths
}

// collectParallel runs step on every task, gathering emitted tasks into a
// per-task slot and concatenating the slots after the barrier. No shared
// mutex is involved — the seed version funneled every chunk's output through
// one global lock, serializing the wide early rounds — and the concatenation
// order is deterministic (task index), so the next frontier's order does not
// depend on chunk timing.
func collectParallel[T any](tasks []T, step func(task T, emitNext func(T))) []T {
	parts := make([][]T, len(tasks))
	ParallelFor(len(tasks), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var local []T
			step(tasks[i], func(t T) { local = append(local, t) })
			parts[i] = local
		}
	})
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
