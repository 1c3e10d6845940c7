package geom

import (
	"encoding/binary"
	"math/bits"
	"slices"

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

// Thinner holds Thin's bit planes, so thinning one region after another
// allocates nothing once they have grown.
type Thinner struct {
	// plane is the raster by word columns, h words each: bit x%64 of
	// word y in column x/64+1 is pixel (x, y). Columns 0 and nw+1 stay
	// zero, so every column has a west and an east one.
	plane []uint64
	del   []uint64   // the deletions of the last two columns decided
	stamp []int32    // per row, the last sub-pass that deleted in it
	spans [][2]int32 // the rows a sub-pass decides, as runs [y0, y1)
}

// Thin runs Zhang–Suen thinning in place on a w×h raster of 0/1 bytes
// whose outermost ring is background (the caller pads).
//
// It works on bit planes, 64 pixels to a word (thinColumn). Each sub-pass
// decides every pixel against the raster as it stood when the sub-pass
// began — a column's deletions land once the column east of it is
// decided — so the result is the full sweeps'. A row is decided again
// only when a pixel within one row of it was deleted in one of the last
// two sub-passes: otherwise every neighbourhood in it is one the last
// sub-pass of the same kind found undeletable. Thinning stops after two
// sub-passes in a row delete nothing.
func (t *Thinner) Thin(pix []uint8, w, h int) {
	nw := (w + 63) / 64
	plane := slices.Grow(t.plane[:0], (nw+2)*h)[:(nw+2)*h]
	clear(plane)
	for y := 0; y < h; y++ {
		row, x := pix[y*w:(y+1)*w], 0
		for ; x+8 <= w; x += 8 {
			// Eight 0/1 bytes to eight bits: the multiply gathers byte
			// k's low bit at bit 56+k, and no two products overlap.
			b := binary.LittleEndian.Uint64(row[x:]) * 0x0102040810204080 >> 56
			plane[(x>>6+1)*h+y] |= b << (x & 63)
		}
		for ; x < w; x++ {
			plane[(x>>6+1)*h+y] |= uint64(row[x]) << (x & 63)
		}
	}
	del := slices.Grow(t.del[:0], 2*h)[:2*h]
	stamp, spans := slices.Grow(t.stamp[:0], h)[:h], t.spans
	clear(stamp) // sub-passes count from 1, so the first two decide every row
	for pass, last := int32(1), int32(0); h >= 3 && pass-last <= 2; pass++ {
		spans = spans[:0]
		for y := int32(1); y < int32(h-1); y++ {
			if max(stamp[y-1], stamp[y], stamp[y+1]) >= pass-2 {
				if k := len(spans) - 1; k < 0 || spans[k][1] < y {
					spans = append(spans, [2]int32{y, y})
				}
				spans[len(spans)-1][1]++
			}
		}
		var deleted [2]bool // by column parity: any deletions waiting in del
		for j := 1; j <= nw+1; j++ {
			deleted[j&1] = j <= nw && thinColumn(del[(j&1)*h:][:h], plane[(j-1)*h:][:3*h], spans, stamp, pass)
			if deleted[j&1] {
				last = pass
			}
			if deleted[(j-1)&1] { // column j-1's east neighbour is decided
				for _, sp := range spans {
					for y := int(sp[0]); y < int(sp[1]); y++ {
						plane[(j-1)*h+y] &^= del[((j-1)&1)*h+y]
					}
				}
			}
		}
	}
	clear(pix[:w*h])
	for j := 0; j < nw; j++ {
		for y, b := range plane[(j+1)*h:][:h] {
			for ; b != 0; b &= b - 1 {
				pix[y*w+j<<6+bits.TrailingZeros64(b)] = 1
			}
		}
	}
	t.plane, t.del, t.stamp, t.spans = plane, del, stamp, spans
}

// thinColumn decides the rows of spans in one word column for a
// sub-pass — cols holds the column between its west and east ones — and
// leaves the pixels it deletes in d, stamping their rows. It reports
// whether there are any. Odd passes are the south-east sub-pass, even
// ones the north-west.
func thinColumn(d, cols []uint64, spans [][2]int32, stamp []int32, pass int32) bool {
	h := len(d)
	west, col, east := cols[:h], cols[h:2*h], cols[2*h:3*h]
	var any uint64
	// A row between two equal rows, with west and east words that do the
	// same, is decided by its own three words. The last such row's words
	// and answer are kept: a rectilinear region is mostly runs of them.
	flatOK, fc, fw, fe, fv := false, uint64(0), uint64(0), uint64(0), uint64(0)
	for _, sp := range spans {
		// The words of rows y-1 and y roll down as y advances.
		y := int(sp[0])
		n, c, wn, wc, en, ec := col[y-1], col[y], west[y-1], west[y], east[y-1], east[y]
		for ; y < int(sp[1]); y++ {
			s, ws, es := col[y+1], west[y+1], east[y+1]
			flat := n == c && c == s && wn == wc && wc == ws && en == ec && ec == es
			var v uint64
			switch {
			case c == 0, n&c&s == ^uint64(0) && (wn&wc&ws)>>63&en&ec&es&1 != 0:
				// No foreground, or every pixel of the word and its
				// neighbours set (B = 8).
			case flat && flatOK && c == fc && wc == fw && ec == fe:
				v = fv
			default:
				// Neighbours P2…P9, clockwise from north.
				ne, e, se := n>>1|en<<63, c>>1|ec<<63, s>>1|es<<63
				sw, w, nw := s<<1|ws>>63, c<<1|wc>>63, n<<1|wn>>63
				// 2 ≤ B ≤ 6: set in at least two planes (one, two) and
				// clear in at least two, that is not set in all planes
				// but one (all, allButOne).
				one, two, all, allButOne := n|ne, n&ne, n&ne, n|ne
				two, one, allButOne, all = two|one&e, one|e, allButOne&(all|e), all&e
				two, one, allButOne, all = two|one&se, one|se, allButOne&(all|se), all&se
				two, one, allButOne, all = two|one&s, one|s, allButOne&(all|s), all&s
				two, one, allButOne, all = two|one&sw, one|sw, allButOne&(all|sw), all&sw
				two, one, allButOne, all = two|one&w, one|w, allButOne&(all|w), all&w
				two, allButOne = two|one&nw, allButOne&(all|nw)
				// A = 1: exactly one 0→1 transition p(i+1) &^ p(i)
				// around the ring, seen once (a1) and twice (a2).
				a1, a2 := ne&^n, uint64(0)
				a2, a1 = a2|a1&(e&^ne), a1|e&^ne
				a2, a1 = a2|a1&(se&^e), a1|se&^e
				a2, a1 = a2|a1&(s&^se), a1|s&^se
				a2, a1 = a2|a1&(sw&^s), a1|sw&^s
				a2, a1 = a2|a1&(w&^sw), a1|w&^sw
				a2, a1 = a2|a1&(nw&^w), a1|nw&^w
				a2, a1 = a2|a1&(n&^nw), a1|n&^nw
				keep := e & s & (n | w) // P2·P4·P6 or P4·P6·P8
				if pass&1 == 0 {
					keep = n & w & (e | s) // P2·P4·P8 or P2·P6·P8
				}
				v = c & two &^ allButOne & a1 &^ a2 &^ keep
				if flat {
					flatOK, fc, fw, fe, fv = true, c, wc, ec, v
				}
			}
			if d[y] = v; v != 0 {
				stamp[y], any = pass, any|v
			}
			n, c, wn, wc, en, ec = c, s, wc, ws, ec, es
		}
	}
	return any != 0
}
