package geom

import (
	"bytes"
	"math/rand"
	"testing"

	"cfaopc/internal/grid"
	"cfaopc/internal/testkit/gridkit"
)

// skeletonRef is Zhang–Suen thinning written the obvious way — every
// sub-pass sweeps the whole grid and tests every foreground pixel — and
// the oracle Thin's bit-plane version must equal pixel for pixel.
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
	gridkit.Fill(full, 1)
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

// requireThinMatchesRef pads m with the background ring Thin wants,
// thins that crop with th and compares it with the reference pixel for
// pixel.
func requireThinMatchesRef(t *testing.T, th *Thinner, m *grid.Real) {
	t.Helper()
	w, h := m.W+2, m.H+2
	pix := make([]uint8, w*h)
	for i, v := range m.Data {
		if v > 0.5 {
			pix[(i/m.W+1)*w+i%m.W+1] = 1
		}
	}
	th.Thin(pix, w, h)
	want := skeletonRef(m)
	for i, v := range pix {
		x, y := i%w-1, i/w-1
		inside := x >= 0 && x < m.W && y >= 0 && y < m.H
		if inside && float64(v) != want.Data[y*m.W+x] || !inside && v != 0 {
			t.Fatalf("%d×%d crop: pixel (%d, %d) = %d, want the reference's", w, h, x+1, y+1, v)
		}
	}
}

// Thin packs 64 pixels to a word, so the crops that end just short of,
// on and just past a word boundary — 62 to 66, 126 to 130 and 190 to 194
// pixels wide — must thin exactly as the reference does, with regions
// that touch every edge of the crop, all-ones crops, checkerboards, a
// thick frame, stripes across the boundary, teeth (rows equal within one
// word, unequal in the next) and random shapes.
func TestThinWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var th Thinner
	for _, base := range []int{62, 126, 190} {
		for cw := base; cw <= base+4; cw++ {
			for _, mh := range []int{1, 2, 5, 24} {
				mw := cw - 2
				full := grid.NewReal(mw, mh)
				gridkit.Fill(full, 1)
				checker, frame, stripes, teeth := grid.NewReal(mw, mh), grid.NewReal(mw, mh), grid.NewReal(mw, mh), grid.NewReal(mw, mh)
				for y := 0; y < mh; y++ {
					for x := 0; x < mw; x++ {
						checker.Data[y*mw+x] = float64((x + y) % 2)
						if min(x, y, mw-1-x, mh-1-y) < 3 {
							frame.Data[y*mw+x] = 1
						}
						if x%64 >= 60 || x%64 < 3 {
							stripes.Data[y*mw+x] = 1
						}
						if (x+1)/64%2 == 0 || y%3 == 0 && (x+1)%64 < 8 {
							teeth.Data[y*mw+x] = 1
						}
					}
				}
				for _, m := range []*grid.Real{full, checker, frame, stripes, teeth, randomShapes(rng, mw, mh)} {
					requireThinMatchesRef(t, &th, m)
				}
			}
		}
	}
}

// One sub-pass of thinColumn deletes what a full sweep deletes from
// the same raster, also along runs of equal rows whose west and east
// words change from row to row — the runs along which it reuses an
// answer. Each trial is three word columns: runs of equal words in the
// middle, a few distinct words at the sides.
func TestThinColumnMatchesSubpassRef(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const h = 40
	for trial := 0; trial < 300; trial++ {
		cols := make([]uint64, 3*h)
		c := rng.Uint64()
		for y := 1; y < h-1; y++ {
			if rng.Intn(5) == 0 {
				c = rng.Uint64() & rng.Uint64()
			}
			cols[y] = [3]uint64{0, 1 << 63, ^uint64(0)}[rng.Intn(3)]
			cols[h+y] = c
			cols[2*h+y] = [3]uint64{0, 1, ^uint64(0)}[rng.Intn(3)]
		}
		m := grid.NewReal(192, h)
		for i := range m.Data {
			x, y := i%192, i/192
			m.Data[i] = float64(cols[x/64*h+y] >> (x % 64) & 1)
		}
		for pass := int32(1); pass <= 2; pass++ {
			d := make([]uint64, h)
			thinColumn(d, cols, [][2]int32{{1, h - 1}}, make([]int32, h), pass)
			want := gridkit.Clone(m)
			skeletonSubpassRef(want, int(pass-1))
			for y := 0; y < h; y++ {
				for x := 64; x < 128; x++ {
					deleted := m.Data[y*192+x] != want.Data[y*192+x]
					if got := d[y]>>(x-64)&1 == 1; got != deleted {
						t.Fatalf("trial %d, sub-pass %d: pixel (%d, %d) deleted = %v, want %v", trial, pass, x, y, got, deleted)
					}
				}
			}
		}
	}
}

// Thin's bit planes are reused from call to call; a crop must see
// nothing of the one before it, whether it is wider, taller, narrower or
// shorter — one Thinner alternates between growing and shrinking crops,
// the large ones often all ones, so stale words would show.
func TestThinnerReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var th Thinner
	for trial := 0; trial < 40; trial++ {
		var m *grid.Real
		switch trial % 4 {
		case 0: // grow: wide and often full
			m = randomShapes(rng, rng.Intn(70)+130, rng.Intn(30)+1)
			if rng.Intn(2) == 0 {
				gridkit.Fill(m, 1)
			}
		case 1: // shrink
			m = randomShapes(rng, rng.Intn(40)+1, rng.Intn(40)+1)
		case 2: // grow again, tall
			m = randomShapes(rng, rng.Intn(130)+60, rng.Intn(60)+30)
		default: // shrink to a sliver
			m = randomShapes(rng, rng.Intn(4)+1, rng.Intn(70)+1)
		}
		requireThinMatchesRef(t, &th, m)
	}
	// A raster too thin to have an interior is left as it is.
	for _, wh := range [][2]int{{1, 1}, {2, 7}, {7, 2}, {130, 1}} {
		pix := make([]uint8, wh[0]*wh[1])
		th.Thin(pix, wh[0], wh[1])
		if bytes.IndexByte(pix, 1) >= 0 {
			t.Fatalf("%d×%d background raster gained a pixel", wh[0], wh[1])
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

// FuzzThinWide drives Thin past the second and third word boundary,
// crops up to 202 pixels wide, which FuzzSkeletonMatchesRef's 96 do not
// reach.
func FuzzThinWide(f *testing.F) {
	f.Add(int64(1), uint8(62), uint8(16))
	f.Add(int64(2), uint8(127), uint8(5))
	f.Add(int64(3), uint8(199), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, w, h uint8) {
		rng := rand.New(rand.NewSource(seed))
		var th Thinner
		requireThinMatchesRef(t, &th, randomShapes(rng, int(w)%200+1, int(h)%48+1))
	})
}
