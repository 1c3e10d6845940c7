package geom

import (
	"fmt"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/layout"
	"cfaopc/internal/testkit/gridkit"
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
	if s := gridkit.Sum(m); s == 0 || int(s) == n*n {
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

// regionCrops cuts m into the rasters CircleRule thins: one per
// 8-connected region, its bounding box plus a one-pixel background ring,
// 1 on the region's pixels.
func regionCrops(m *grid.Real) (crops [][]uint8, ws, hs []int) {
	l := Components(m, true)
	for id := 1; id <= l.N; id++ {
		b := l.Bounds[id]
		w, h := b.W+2, b.H+2
		pix := make([]uint8, w*h)
		for y := 0; y < b.H; y++ {
			for x, v := range l.Label[(b.Y+y)*l.W+b.X:][:b.W] {
				if int(v) == id {
					pix[(y+1)*w+x+1] = 1
				}
			}
		}
		crops, ws, hs = append(crops, pix), append(ws, w), append(hs, h)
	}
	return crops, ws, hs
}

// BenchmarkThinner times Thin on the region crops CircleRule cuts from
// the 192-px suite window, all of them per op, through one reused Thinner.
func BenchmarkThinner(b *testing.B) {
	crops, ws, hs := regionCrops(suiteWindow(b, 192))
	var sizes []string
	for i := range crops {
		sizes = append(sizes, fmt.Sprintf("%d×%d", ws[i], hs[i]))
	}
	b.Logf("%d crops: %v", len(crops), sizes)
	work := make([]uint8, 0, 192*192)
	var th Thinner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, c := range crops {
			work = append(work[:0], c...)
			th.Thin(work, ws[k], hs[k])
		}
	}
}
