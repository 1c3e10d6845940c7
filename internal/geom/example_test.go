package geom_test

import (
	"fmt"

	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/testkit/gridkit"
)

// ExamplePartitionRects shows the minimum rectangle partition on an
// L-shaped region: two rectangles, not three.
func ExamplePartitionRects() {
	m := grid.NewReal(5, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 2; x++ {
			m.Set(x, y, 1)
		}
	}
	for y := 2; y < 4; y++ {
		for x := 2; x < 5; x++ {
			m.Set(x, y, 1)
		}
	}
	rects := geom.PartitionRects(m)
	fmt.Println(len(rects), "rectangles")
	// Output: 2 rectangles
}

// ExampleSkeleton thins a thick bar to its one-pixel medial line.
func ExampleSkeleton() {
	m := grid.NewReal(9, 7)
	for y := 2; y < 5; y++ {
		for x := 1; x < 8; x++ {
			m.Set(x, y, 1)
		}
	}
	s := geom.Skeleton(m)
	fmt.Println("skeleton pixels:", int(gridkit.Sum(s)))
	// Output: skeleton pixels: 4
}

// ExampleRasterizeCircles unions two overlapping shots into one mask.
func ExampleRasterizeCircles() {
	mask := geom.RasterizeCircles(16, 16, []geom.Circle{
		{X: 6, Y: 8, R: 3},
		{X: 10, Y: 8, R: 3},
	})
	comp := geom.Components(mask, true)
	fmt.Println("features:", comp.N)
	// Output: features: 1
}
