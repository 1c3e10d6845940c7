package geom

import (
	"math/bits"
	"sync"

	"cfaopc/internal/grid"
)

// Skeleton thins the binary mask to a one-pixel-wide, 8-connected medial
// skeleton using the Zhang–Suen algorithm. The skeleton is the curve
// CircleRule samples circle centers from: every skeleton pixel keeps at
// least one 8-neighbour while the region stays connected (single isolated
// pixels remain as themselves).
func Skeleton(m *grid.Real) *grid.Real {
	// Thin wants a background ring, so work on a copy padded by one pixel.
	w, h := m.W+2, m.H+2
	pix := make([]uint8, w*h)
	for y := 0; y < m.H; y++ {
		row := pix[(y+1)*w+1:]
		for x, v := range m.Data[y*m.W : (y+1)*m.W] {
			if v > 0.5 {
				row[x] = 1
			}
		}
	}
	var t Thinner
	t.Thin(pix, w, h)
	s := grid.NewReal(m.W, m.H)
	for y := 0; y < m.H; y++ {
		row := pix[(y+1)*w+1:]
		for x := range s.Data[y*m.W : (y+1)*m.W] {
			s.Data[y*m.W+x] = float64(row[x])
		}
	}
	return s
}

// Thinner holds the work lists of Thin, so thinning one region after
// another allocates nothing once they have grown.
type Thinner struct{ active, next, del []int32 }

// Pixel states during thinning. A foreground pixel is on the work list
// exactly when it carries the queued bit; every pixel is 0 or 1 again
// when Thin returns.
const (
	thinFg     = 1
	thinQueued = 2
)

// thinTable maps a pixel's neighbourhood code — bit i is neighbour P2+i,
// clockwise from north — to the sub-passes that delete it: bit 0 for the
// south-east sub-pass, bit 1 for the north-west one. The conditions are
// Zhang–Suen's: 2 ≤ B ≤ 6 foreground neighbours, exactly one 0→1
// transition around the ring, and the two per-pass products being zero.
var thinTable = sync.OnceValue(func() *[256]uint8 {
	var tab [256]uint8
	for code := range tab {
		p := func(i int) int { return code >> (i % 8) & 1 }
		if b := bits.OnesCount8(uint8(code)); b < 2 || b > 6 {
			continue
		}
		a := 0
		for i := 0; i < 8; i++ {
			if p(i) == 0 && p(i+1) == 1 {
				a++
			}
		}
		if a != 1 {
			continue
		}
		if p(0)*p(2)*p(4) == 0 && p(2)*p(4)*p(6) == 0 {
			tab[code] |= 1
		}
		if p(0)*p(2)*p(6) == 0 && p(0)*p(4)*p(6) == 0 {
			tab[code] |= 2
		}
	}
	return &tab
})

// Thin runs Zhang–Suen thinning in place on a w×h raster of 0/1 bytes
// whose outermost ring is background (the caller pads; the ring is what
// lets the neighbourhood code skip bounds checks).
//
// The cost follows the region, not the raster: each sub-pass visits a
// work list instead of sweeping the grid. A pixel leaves the list when
// its neighbourhood code is deletable in neither sub-pass, and only the
// deletion of a neighbour — which puts it back — can change that code.
// Each sub-pass still decides every pixel against the raster as it stood
// when the sub-pass began and deletes afterwards, so the result is the
// one the full sweeps produce.
func (t *Thinner) Thin(pix []uint8, w, h int) {
	tab := thinTable()
	// Clockwise from north, matching the bit order of the code.
	ring := [8]int{-w, -w + 1, 1, w + 1, w, w - 1, -1, -w - 1}
	active := t.active[:0]
	for y := 1; y < h-1; y++ {
		for i := y*w + 1; i < (y+1)*w-1; i++ {
			if pix[i] != 0 {
				pix[i] = thinFg | thinQueued
				active = append(active, int32(i))
			}
		}
	}
	next, del := t.next[:0], t.del[:0]
	for pass := uint8(1); len(active) > 0; pass ^= 3 {
		for _, a := range active {
			i := int(a)
			n, s := pix[i-w-1:], pix[i+w-1:]
			code := n[1]&thinFg | n[2]&thinFg<<1 | pix[i+1]&thinFg<<2 | s[2]&thinFg<<3 |
				s[1]&thinFg<<4 | s[0]&thinFg<<5 | pix[i-1]&thinFg<<6 | n[0]&thinFg<<7
			switch m := tab[code]; {
			case m&pass != 0:
				del = append(del, a)
			case m != 0:
				next = append(next, a) // the other sub-pass may take it
			default:
				pix[i] = thinFg
			}
		}
		for _, a := range del {
			pix[a] = 0
		}
		for _, a := range del {
			for _, d := range ring {
				if n := int(a) + d; pix[n] == thinFg {
					pix[n] = thinFg | thinQueued
					next = append(next, int32(n))
				}
			}
		}
		active, next, del = next, active[:0], del[:0]
	}
	t.active, t.next, t.del = active, next, del
}
