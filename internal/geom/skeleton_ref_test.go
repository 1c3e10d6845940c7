package geom

import (
	"math/rand"
	"testing"

	"cfaopc/internal/grid"
)

// skeletonRef is Zhang–Suen thinning written the obvious way — every
// sub-pass sweeps the whole grid and tests every foreground pixel — and
// the oracle Thin's work-list version must equal pixel for pixel.
func skeletonRef(m *grid.Real) *grid.Real {
	s := m.Binarize(0.5)
	for {
		n0 := skeletonSubpassRef(s, 0)
		n1 := skeletonSubpassRef(s, 1)
		if n0+n1 == 0 {
			return s
		}
	}
}

// skeletonSubpassRef runs one Zhang–Suen sub-iteration (pass 0 removes
// south-east boundary pixels, pass 1 north-west) and returns the number of
// pixels removed.
func skeletonSubpassRef(s *grid.Real, pass int) int {
	w, h := s.W, s.H
	at := func(x, y int) int {
		if x < 0 || x >= w || y < 0 || y >= h || s.Data[y*w+x] <= 0.5 {
			return 0
		}
		return 1
	}
	var toClear []int
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if at(x, y) == 0 {
				continue
			}
			// Neighbours P2..P9 clockwise from north.
			p := [8]int{at(x, y-1), at(x+1, y-1), at(x+1, y), at(x+1, y+1),
				at(x, y+1), at(x-1, y+1), at(x-1, y), at(x-1, y-1)}
			b := 0
			for _, v := range p {
				b += v
			}
			if b < 2 || b > 6 {
				continue
			}
			// A(P1): number of 0→1 transitions in the circular sequence.
			a := 0
			for i := 0; i < 8; i++ {
				if p[i] == 0 && p[(i+1)%8] == 1 {
					a++
				}
			}
			if a != 1 {
				continue
			}
			if pass == 0 {
				if p[0]*p[2]*p[4] != 0 || p[2]*p[4]*p[6] != 0 {
					continue
				}
			} else {
				if p[0]*p[2]*p[6] != 0 || p[0]*p[4]*p[6] != 0 {
					continue
				}
			}
			toClear = append(toClear, y*w+x)
		}
	}
	for _, i := range toClear {
		s.Data[i] = 0
	}
	return len(toClear)
}

func requireSkeletonMatchesRef(t *testing.T, m *grid.Real) {
	t.Helper()
	got, want := Skeleton(m), skeletonRef(m)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%d×%d mask: skeleton differs from the reference at (%d, %d): got %v, want %v",
				m.W, m.H, i%m.W, i/m.W, got.Data[i], want.Data[i])
		}
	}
}

// randomShapes paints rectangles and disks, some of them cut by the grid
// border, and then knocks a few holes in them.
func randomShapes(rng *rand.Rand, w, h int) *grid.Real {
	m := grid.NewReal(w, h)
	for k := rng.Intn(8); k >= 0; k-- {
		cx, cy := rng.Intn(w+8)-4, rng.Intn(h+8)-4
		if rng.Intn(2) == 0 {
			rw, rh := rng.Intn(w/2+1)+1, rng.Intn(h/2+1)+1
			for y := max(cy, 0); y < min(cy+rh, h); y++ {
				for x := max(cx, 0); x < min(cx+rw, w); x++ {
					m.Data[y*w+x] = 1
				}
			}
			continue
		}
		r := rng.Float64()*float64(min(w, h))/3 + 0.5
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if dx, dy := float64(x-cx), float64(y-cy); dx*dx+dy*dy <= r*r {
					m.Data[y*w+x] = 1
				}
			}
		}
	}
	for k := rng.Intn(6); k > 0; k-- {
		m.Data[rng.Intn(w*h)] = 0
	}
	return m
}

func TestSkeletonMatchesRef(t *testing.T) {
	for _, m := range []*grid.Real{
		mk("#"),
		mk("##", "##"),
		mk("###", "###", "###"),
		mk("#.#", ".#.", "#.#"),
		mk("#####", "#...#", "#.#.#", "#...#", "#####"),
		grid.NewReal(7, 3),
	} {
		requireSkeletonMatchesRef(t, m)
	}
	full := grid.NewReal(33, 17)
	full.Fill(1)
	requireSkeletonMatchesRef(t, full)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		requireSkeletonMatchesRef(t, randomShapes(rng, rng.Intn(70)+1, rng.Intn(70)+1))
	}
	// Salt-and-pepper noise: every neighbourhood code turns up.
	for trial := 0; trial < 50; trial++ {
		m := grid.NewReal(rng.Intn(40)+1, rng.Intn(40)+1)
		for i := range m.Data {
			if rng.Intn(10) < 3+trial%6 {
				m.Data[i] = 1
			}
		}
		requireSkeletonMatchesRef(t, m)
	}
}

// Thin's work lists are reused from call to call; a second region must
// not see anything of the first.
func TestThinnerReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var th Thinner
	for trial := 0; trial < 30; trial++ {
		m := randomShapes(rng, rng.Intn(50)+1, rng.Intn(50)+1)
		w, h := m.W+2, m.H+2
		pix := make([]uint8, w*h)
		for i, v := range m.Data {
			pix[(i/m.W+1)*w+i%m.W+1] = uint8(v)
		}
		th.Thin(pix, w, h)
		want := skeletonRef(m)
		for i, v := range want.Data {
			if got := pix[(i/m.W+1)*w+i%m.W+1]; float64(got) != v {
				t.Fatalf("trial %d: pixel %d = %d, want %v", trial, i, got, v)
			}
		}
	}
}

func FuzzSkeletonMatchesRef(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(16))
	f.Add(int64(2), uint8(96), uint8(5))
	f.Add(int64(3), uint8(1), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, w, h uint8) {
		rng := rand.New(rand.NewSource(seed))
		requireSkeletonMatchesRef(t, randomShapes(rng, int(w)%96+1, int(h)%96+1))
	})
}
