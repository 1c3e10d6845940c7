package geom

import (
	"fmt"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
)

// suiteWindow cuts an n×n window out of suite case 4 at 2 nm/px — the
// resolution of the benchmark's heavy CircleRule jobs — where the case's
// bars are, so the window holds several shapes and slices some of them.
func suiteWindow(tb testing.TB, n int) *grid.Real {
	tb.Helper()
	const chipN, x0, y0 = 1024, 288, 256
	chip := layout.GenerateSuite()[3].Rasterize(chipN)
	m := grid.NewReal(n, n)
	for y := 0; y < n; y++ {
		copy(m.Data[y*n:(y+1)*n], chip.Data[(y0+y)*chipN+x0:][:n])
	}
	if s := m.Sum(); s == 0 || int(s) == n*n {
		tb.Fatalf("suite window %d holds %v foreground pixels", n, s)
	}
	return m
}

var sinkGrid *grid.Real

func BenchmarkSkeleton(b *testing.B) {
	for _, n := range []int{96, 192} {
		m := suiteWindow(b, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkGrid = Skeleton(m)
			}
		})
	}
}

func BenchmarkDistanceTransform(b *testing.B) {
	for _, n := range []int{96, 192} {
		m := suiteWindow(b, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkGrid = DistanceTransform(m)
			}
		})
	}
}

func BenchmarkComponents(b *testing.B) {
	m := suiteWindow(b, 192)
	b.Run("192", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if Components(m, true).N == 0 {
				b.Fatal("no components")
			}
		}
	})
}
