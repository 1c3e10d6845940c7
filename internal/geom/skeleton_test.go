package geom

import (
	"math/rand"
	"testing"

	"cfaopc/internal/grid"
)

func TestSkeletonSubsetOfShape(t *testing.T) {
	m := mk(
		"........",
		".######.",
		".######.",
		".######.",
		"........",
	)
	s := Skeleton(m)
	for i := range s.Data {
		if s.Data[i] > 0.5 && m.Data[i] <= 0.5 {
			t.Fatal("skeleton pixel outside original shape")
		}
	}
	if s.Sum() == 0 {
		t.Fatal("skeleton is empty")
	}
	if s.Sum() >= m.Sum() {
		t.Fatal("skeleton did not thin the shape")
	}
}

func TestSkeletonOfLineIsLine(t *testing.T) {
	m := mk(
		"..........",
		"..........",
		"##########",
		"..........",
	)
	s := Skeleton(m)
	// A 1px line is already a skeleton; thinning may trim endpoints but
	// must keep most of it on the same row.
	if s.Sum() < 6 {
		t.Fatalf("skeleton of a line lost too much: %v px", s.Sum())
	}
	for x := 0; x < 10; x++ {
		for y := 0; y < 4; y++ {
			if y != 2 && s.At(x, y) > 0.5 {
				t.Fatal("skeleton moved off the medial row")
			}
		}
	}
}

func TestSkeletonOfThickBarIsThin(t *testing.T) {
	m := grid.NewReal(30, 9)
	for y := 2; y < 7; y++ {
		for x := 2; x < 28; x++ {
			m.Set(x, y, 1)
		}
	}
	s := Skeleton(m)
	// Each interior column should hold exactly one skeleton pixel.
	for x := 6; x < 24; x++ {
		cnt := 0
		for y := 0; y < 9; y++ {
			if s.At(x, y) > 0.5 {
				cnt++
			}
		}
		if cnt != 1 {
			t.Fatalf("column %d has %d skeleton pixels, want 1", x, cnt)
		}
	}
}

func TestSkeletonPreservesConnectivity(t *testing.T) {
	// An L-shaped region stays one 8-connected piece after thinning.
	m := mk(
		"#####.....",
		"#####.....",
		"#####.....",
		"##########",
		"##########",
		"##########",
	)
	s := Skeleton(m)
	if n := Components(s, true).N; n != 1 {
		t.Fatalf("skeleton has %d components, want 1", n)
	}
}

func TestSkeletonConnectivityProperty(t *testing.T) {
	// Random blobs built from overlapping rectangles: thinning must never
	// split one 8-connected component into more.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		m := grid.NewReal(40, 40)
		for r := 0; r < 4; r++ {
			x0, y0 := rng.Intn(25)+5, rng.Intn(25)+5
			w, h := rng.Intn(10)+3, rng.Intn(10)+3
			for y := y0; y < y0+h && y < 40; y++ {
				for x := x0; x < x0+w && x < 40; x++ {
					m.Set(x, y, 1)
				}
			}
		}
		before := Components(m, true).N
		s := Skeleton(m)
		after := Components(s, true).N
		if after > before {
			t.Fatalf("trial %d: thinning split components %d → %d", trial, before, after)
		}
		for i := range s.Data {
			if s.Data[i] > 0.5 && m.Data[i] <= 0.5 {
				t.Fatalf("trial %d: skeleton escaped the shape", trial)
			}
		}
	}
}

func TestSkeletonEmptyMask(t *testing.T) {
	s := Skeleton(grid.NewReal(5, 5))
	if s.Sum() != 0 {
		t.Fatal("skeleton of empty mask not empty")
	}
}
