package sched

import (
	"os"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestMain raises GOMAXPROCS so the multi-worker paths run even on
// single-core machines.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 10000} {
		marks := make([]atomic.Int32, n)
		ParallelFor(n, 3, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				marks[i].Add(1)
			}
		})
		for i := range marks {
			if got := marks[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

func TestParallelForDefaultGrain(t *testing.T) {
	var sum atomic.Int64
	ParallelFor(1000, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	})
	if got := sum.Load(); got != 999*1000/2 {
		t.Fatalf("sum = %d", got)
	}
}

// TestParallelForWidthBound checks the explicit width: at most w chunk
// bodies run at once (GOMAXPROCS is 4 here), and w = 1 runs the whole range
// as one call.
func TestParallelForWidthBound(t *testing.T) {
	for _, w := range []int{1, 2, 3} {
		var live, peak, calls atomic.Int32
		ParallelForWidth(w, 10000, 10, func(lo, hi int) {
			calls.Add(1)
			n := live.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			runtime.Gosched()
			live.Add(-1)
		})
		if got := peak.Load(); got > int32(w) {
			t.Fatalf("w=%d: %d bodies ran at once", w, got)
		}
		if w == 1 && calls.Load() != 1 {
			t.Fatalf("w=1: %d calls, want one inline call", calls.Load())
		}
	}
}

func TestGroupRunsAll(t *testing.T) {
	g := NewGroup(4)
	var count atomic.Int64
	var spawnNested func(depth int)
	spawnNested = func(depth int) {
		count.Add(1)
		if depth < 3 {
			for i := 0; i < 3; i++ {
				g.Go(func() { spawnNested(depth + 1) })
			}
		}
	}
	for i := 0; i < 5; i++ {
		g.Go(func() { spawnNested(0) })
	}
	g.Wait()
	// 5 roots, each a ternary tree of depth 3: 5 * (1+3+9+27) = 200.
	if got := count.Load(); got != 200 {
		t.Fatalf("ran %d tasks, want 200", got)
	}
}

func TestGroupDefaultLimit(t *testing.T) {
	g := NewGroup(0)
	var n atomic.Int32
	for i := 0; i < 100; i++ {
		g.Go(func() { n.Add(1) })
	}
	g.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d", n.Load())
	}
}

// TestRunRounds checks both the results and the round count: a task chain of
// length k must take exactly k rounds regardless of how many chains run.
func TestRunRounds(t *testing.T) {
	type task struct{ remaining int }
	var processed atomic.Int64
	initial := make([]task, 50)
	for i := range initial {
		initial[i] = task{remaining: i % 7}
	}
	rounds := RunRounds(initial, func(tk task, emit func(task)) {
		processed.Add(1)
		if tk.remaining > 0 {
			emit(task{tk.remaining - 1})
		}
	})
	if rounds != 7 { // longest chain: remaining=6 -> 7 steps
		t.Fatalf("rounds = %d, want 7", rounds)
	}
	// Total tasks processed: sum over i of (i%7 + 1).
	want := int64(0)
	for i := 0; i < 50; i++ {
		want += int64(i%7 + 1)
	}
	if got := processed.Load(); got != want {
		t.Fatalf("processed %d, want %d", got, want)
	}
	if r := RunRounds(nil, func(tk task, emit func(task)) {}); r != 0 {
		t.Fatalf("empty frontier: rounds = %d", r)
	}
}

// TestRunRoundsFanout checks that a task may emit several successors.
func TestRunRoundsFanout(t *testing.T) {
	type task struct{ depth int }
	var leaves atomic.Int64
	rounds := RunRounds([]task{{0}}, func(tk task, emit func(task)) {
		if tk.depth == 4 {
			leaves.Add(1)
			return
		}
		emit(task{tk.depth + 1})
		emit(task{tk.depth + 1})
	})
	if rounds != 5 {
		t.Fatalf("rounds = %d, want 5", rounds)
	}
	if got := leaves.Load(); got != 16 {
		t.Fatalf("leaves = %d, want 16", got)
	}
}

func BenchmarkParallelFor(b *testing.B) {
	data := make([]float64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelFor(len(data), 1024, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j] = float64(j) * 1.5
			}
		})
	}
}

// TestGroupBoundsGoroutines pins the Group contract the engines rely on:
// the number of goroutines is bounded by the limit, not by the number or
// nesting depth of forks. A chain of 50k dependent forks under GroupLimit=1
// must complete (inline execution, no queueing) without the goroutine count
// growing with the chain length.
func TestGroupBoundsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	g := NewGroup(1)
	var ran atomic.Int64
	var maxG atomic.Int64
	const depth = 50000
	var launch func(d int)
	launch = func(d int) {
		g.Go(func() {
			ran.Add(1)
			if n := int64(runtime.NumGoroutine()); n > maxG.Load() {
				maxG.Store(n)
			}
			if d > 0 {
				launch(d - 1)
			}
		})
	}
	launch(depth)
	g.Wait()
	if got := ran.Load(); got != depth+1 {
		t.Fatalf("ran %d forks, want %d", got, depth+1)
	}
	// With limit 1 at most one Group goroutine exists at a time; everything
	// else runs inline. Allow slack for unrelated runtime goroutines.
	if high := maxG.Load(); high > int64(base)+3 {
		t.Fatalf("goroutine high-water %d over base %d with limit 1", high, base)
	}
}

// TestGroupWideForkBounded checks the bound under a wide (non-nested) fork
// pattern: 10k independent forks against a small limit all run exactly once.
func TestGroupWideForkBounded(t *testing.T) {
	g := NewGroup(2)
	var live, high, ran atomic.Int64
	for i := 0; i < 10000; i++ {
		g.Go(func() {
			l := live.Add(1)
			for {
				h := high.Load()
				if l <= h || high.CompareAndSwap(h, l) {
					break
				}
			}
			ran.Add(1)
			live.Add(-1)
		})
	}
	g.Wait()
	if got := ran.Load(); got != 10000 {
		t.Fatalf("ran %d forks, want 10000", got)
	}
	// Non-nested forks: at most limit spawned + the forking goroutine inline.
	if h := high.Load(); h > 3 {
		t.Fatalf("concurrent executions high-water %d with limit 2", h)
	}
}
