package fft

import (
	"fmt"
	"testing"
	"time"
)

// flowSizes are the window edges the tiled flow and the benchmark use.
var flowSizes = []int{96, 128, 192, 256}

// After warm-up no transform allocates: scratch comes from the plan's
// pool and the plan table is read without locking or boxing. Square flow
// windows at a band no caller has, a non-square grid (two plans, two
// pools), and the (N, band) pairs LossGrad runs.
func TestTransformsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	cases := [][3]int{{96, 30, 10}}
	for _, n := range flowSizes {
		cases = append(cases, [3]int{n, n, n / 9})
	}
	for _, nb := range lossGradBands {
		cases = append(cases, [3]int{nb[0], nb[0], nb[1]})
	}
	for _, c := range cases {
		w, h, half := c[0], c[1], c[2]
		x := randomSignal(w, 1)
		g := randomGrid(w, h, 2)
		for name, f := range map[string]func(){
			"Forward":       func() { Forward(x) },
			"Inverse":       func() { Inverse(x) },
			"Forward2D":     func() { Forward2D(g) },
			"Inverse2D":     func() { Inverse2D(g) },
			"Forward2DBand": func() { Forward2DBand(g, half) },
			"Inverse2DBand": func() { Inverse2DBand(g, half) },
		} {
			f() // warm the plan table and the pool
			if a := testing.AllocsPerRun(20, f); a != 0 {
				t.Errorf("%s at %dx%d band %d: %v allocs per run, want 0", name, w, h, half, a)
			}
		}
	}
}

// minTime2D is the fastest of reps timings of one Forward2D at n×n.
func minTime2D(n, reps int) time.Duration {
	g := randomGrid(n, n, 3)
	Forward2D(g)
	best := time.Duration(1 << 62)
	for r := 0; r < reps; r++ {
		start := time.Now()
		Forward2D(g)
		best = min(best, time.Since(start))
	}
	return best
}

// The perf guard that is stable on a noisy runner: a window that is not a
// power of two must cost less than the next power of two above it. Each
// side is a minimum over many runs, so a descheduled run cannot fail it.
func TestFFT2DRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test: skipped under -short and -race")
	}
	for _, pair := range [][2]int{{192, 256}, {96, 128}} {
		small, large := minTime2D(pair[0], 30), minTime2D(pair[1], 30)
		t.Logf("%d²: %v, %d²: %v, ratio %.2f", pair[0], small, pair[1], large, float64(small)/float64(large))
		if small >= large {
			t.Errorf("Forward2D at %d² took %v, not less than %v at %d²", pair[0], small, large, pair[1])
		}
	}
}

// The benchmarks alternate forward and inverse so the data keeps its
// magnitude: repeating one direction overflows to Inf within a hundred
// iterations and then times something else.

func BenchmarkFFT1D(b *testing.B) {
	for _, n := range flowSizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			x := randomSignal(n, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					Forward(x)
				} else {
					Inverse(x)
				}
			}
		})
	}
}

func BenchmarkFFT2D(b *testing.B) {
	// 1024 and 2048 are the one-window grids of cfaopc and paperbench.
	for _, n := range append(flowSizes, 512, 1024, 2048) {
		g := randomGrid(n, n, 1)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					Forward2D(g)
				} else {
					Inverse2D(g)
				}
			}
		})
		b.Run(fmt.Sprintf("%d/band", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					Forward2DBand(g, n/9)
				} else {
					Inverse2DBand(g, n/9)
				}
			}
		})
	}
	// The bands LossGrad runs, each direction timed alone; the other one
	// still runs, off the clock, to keep the data's magnitude.
	for _, nb := range lossGradBands {
		n, half := nb[0], nb[1]
		g := randomGrid(n, n, 1)
		for _, dir := range []string{"fwd", "inv"} {
			timed, untimed := Forward2DBand, Inverse2DBand
			if dir == "inv" {
				timed, untimed = untimed, timed
			}
			b.Run(fmt.Sprintf("%d/%d/%s", n, half, dir), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					timed(g, half)
					b.StopTimer()
					untimed(g, half)
					b.StartTimer()
				}
			})
		}
	}
}
