package geom

import (
	"math/rand"
	"testing"

	"cfaopc/internal/grid"
)

func TestMaxBipartiteMatchingKnown(t *testing.T) {
	// Perfect matching on a 3×3 bipartite cycle-ish graph.
	adj := [][]int{{0, 1}, {1, 2}, {0, 2}}
	matchL, matchR := MaxBipartiteMatching(3, 3, adj)
	size := 0
	for l, r := range matchL {
		if r != -1 {
			size++
			if matchR[r] != l {
				t.Fatal("matchL/matchR inconsistent")
			}
		}
	}
	if size != 3 {
		t.Fatalf("matching size %d, want 3", size)
	}
}

func TestMaxBipartiteMatchingStar(t *testing.T) {
	// Many left vertices all adjacent to one right vertex: matching = 1.
	adj := [][]int{{0}, {0}, {0}, {0}}
	matchL, _ := MaxBipartiteMatching(4, 1, adj)
	size := 0
	for _, r := range matchL {
		if r != -1 {
			size++
		}
	}
	if size != 1 {
		t.Fatalf("matching size %d, want 1", size)
	}
}

func TestMinVertexCoverCoversAllEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		nL, nR := rng.Intn(8)+1, rng.Intn(8)+1
		adj := make([][]int, nL)
		edges := 0
		for l := 0; l < nL; l++ {
			for r := 0; r < nR; r++ {
				if rng.Float64() < 0.3 {
					adj[l] = append(adj[l], r)
					edges++
				}
			}
		}
		matchL, matchR := MaxBipartiteMatching(nL, nR, adj)
		coverL, coverR := MinVertexCover(nL, nR, adj, matchL, matchR)
		// Every edge covered.
		for l := 0; l < nL; l++ {
			for _, r := range adj[l] {
				if !coverL[l] && !coverR[r] {
					t.Fatalf("trial %d: edge (%d,%d) uncovered", trial, l, r)
				}
			}
		}
		// König: |cover| == |matching|.
		cov, match := 0, 0
		for _, b := range coverL {
			if b {
				cov++
			}
		}
		for _, b := range coverR {
			if b {
				cov++
			}
		}
		for _, r := range matchL {
			if r != -1 {
				match++
			}
		}
		if cov != match {
			t.Fatalf("trial %d: cover %d != matching %d", trial, cov, match)
		}
	}
}

// checkPartition verifies rects exactly tile the foreground of m (after
// checkerboard cleanup) with no overlaps, and returns the count.
func checkPartition(t *testing.T, m *grid.Real, rects []Rect) int {
	t.Helper()
	clean := m.Binarize(0.5)
	RemoveCheckerboards(clean)
	painted := grid.NewReal(m.W, m.H)
	for _, r := range rects {
		if r.W <= 0 || r.H <= 0 {
			t.Fatalf("degenerate rect %+v", r)
		}
		for y := r.Y; y < r.Y+r.H; y++ {
			for x := r.X; x < r.X+r.W; x++ {
				if painted.At(x, y) != 0 {
					t.Fatalf("rect overlap at (%d,%d)", x, y)
				}
				painted.Set(x, y, 1)
			}
		}
	}
	for i := range clean.Data {
		if clean.Data[i] != painted.Data[i] {
			t.Fatalf("partition does not tile the mask at %d", i)
		}
	}
	return len(rects)
}

func TestPartitionRectangle(t *testing.T) {
	m := mk(
		"....",
		".##.",
		".##.",
		"....",
	)
	rects := PartitionRects(m)
	if n := checkPartition(t, m, rects); n != 1 {
		t.Fatalf("rectangle partitioned into %d pieces", n)
	}
}

func TestPartitionLShape(t *testing.T) {
	m := mk(
		"##...",
		"##...",
		"#####",
		"#####",
	)
	rects := PartitionRects(m)
	if n := checkPartition(t, m, rects); n != 2 {
		t.Fatalf("L-shape needs 2 rects, got %d", n)
	}
}

func TestPartitionPlusShape(t *testing.T) {
	m := mk(
		".###.",
		".###.",
		"#####",
		"#####",
		".###.",
		".###.",
	)
	rects := PartitionRects(m)
	if n := checkPartition(t, m, rects); n != 3 {
		t.Fatalf("plus shape needs 3 rects, got %d", n)
	}
}

func TestPartitionTShape(t *testing.T) {
	m := mk(
		"######",
		"######",
		"..##..",
		"..##..",
	)
	rects := PartitionRects(m)
	if n := checkPartition(t, m, rects); n != 2 {
		t.Fatalf("T-shape needs 2 rects, got %d", n)
	}
}

func TestPartitionWithHole(t *testing.T) {
	m := mk(
		"######",
		"#....#",
		"#....#",
		"######",
	)
	rects := PartitionRects(m)
	// A rectangular ring needs 4 rectangles.
	if n := checkPartition(t, m, rects); n != 4 {
		t.Fatalf("ring needs 4 rects, got %d", n)
	}
}

func TestPartitionStaircaseChordCase(t *testing.T) {
	// Two opposing notches connected by one chord: optimal is 3.
	m := mk(
		"###...",
		"###...",
		"######",
		"######",
		"...###",
		"...###",
	)
	rects := PartitionRects(m)
	if n := checkPartition(t, m, rects); n > 3 {
		t.Fatalf("staircase should need ≤3 rects, got %d", n)
	}
}

func TestPartitionMultipleComponents(t *testing.T) {
	m := mk(
		"##..##",
		"##..##",
		"......",
		"####..",
	)
	rects := PartitionRects(m)
	if n := checkPartition(t, m, rects); n != 3 {
		t.Fatalf("3 disjoint rects should stay 3, got %d", n)
	}
}

func TestPartitionEmpty(t *testing.T) {
	rects := PartitionRects(grid.NewReal(5, 5))
	if len(rects) != 0 {
		t.Fatalf("empty mask produced %d rects", len(rects))
	}
}

func TestDecomposeBands(t *testing.T) {
	m := mk(
		"##...",
		"##...",
		"#####",
	)
	rects := DecomposeBands(m)
	if n := checkPartition(t, m, rects); n != 2 {
		t.Fatalf("band decomposition gave %d rects, want 2", n)
	}
}

// Property: the optimal partition never uses more rectangles than the
// greedy band decomposition, and both tile exactly.
func TestPartitionNotWorseThanBands(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		m := grid.NewReal(24, 24)
		for r := 0; r < rng.Intn(5)+2; r++ {
			x0, y0 := rng.Intn(16), rng.Intn(16)
			w, h := rng.Intn(8)+2, rng.Intn(8)+2
			for y := y0; y < y0+h && y < 24; y++ {
				for x := x0; x < x0+w && x < 24; x++ {
					m.Set(x, y, 1)
				}
			}
		}
		RemoveCheckerboards(m)
		opt := PartitionRects(m)
		bands := DecomposeBands(m)
		nOpt := checkPartition(t, m, opt)
		nBands := checkPartition(t, m, bands)
		if nOpt > nBands {
			t.Fatalf("trial %d: optimal %d > bands %d", trial, nOpt, nBands)
		}
	}
}
