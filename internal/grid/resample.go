package grid

import "fmt"

// DownsampleBox reduces g by an integer factor using box (area) averaging.
// The grid dimensions must be divisible by factor.
func DownsampleBox(g *Real, factor int) *Real {
	if factor <= 0 || g.W%factor != 0 || g.H%factor != 0 {
		panic(fmt.Sprintf("grid: cannot downsample %dx%d by %d", g.W, g.H, factor))
	}
	w, h := g.W/factor, g.H/factor
	out := NewReal(w, h)
	inv := 1.0 / float64(factor*factor)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := 0.0
			for dy := 0; dy < factor; dy++ {
				row := (y*factor + dy) * g.W
				for dx := 0; dx < factor; dx++ {
					s += g.Data[row+x*factor+dx]
				}
			}
			out.Data[y*w+x] = s * inv
		}
	}
	return out
}

// UpsampleBilinear enlarges g by an integer factor using bilinear
// interpolation between source pixel centers.
func UpsampleBilinear(g *Real, factor int) *Real {
	if factor <= 0 {
		panic(fmt.Sprintf("grid: invalid upsample factor %d", factor))
	}
	w, h := g.W*factor, g.H*factor
	out := NewReal(w, h)
	f := float64(factor)
	for y := 0; y < h; y++ {
		// Map destination pixel center back into source coordinates.
		sy := (float64(y)+0.5)/f - 0.5
		y0 := int(sy)
		if sy < 0 {
			y0 = 0
			sy = 0
		}
		if y0 > g.H-2 {
			y0 = g.H - 2
			if y0 < 0 {
				y0 = 0
			}
		}
		y1 := y0 + 1
		if y1 >= g.H {
			y1 = g.H - 1
		}
		wy := sy - float64(y0)
		if wy < 0 {
			wy = 0
		} else if wy > 1 {
			wy = 1
		}
		for x := 0; x < w; x++ {
			sx := (float64(x)+0.5)/f - 0.5
			x0 := int(sx)
			if sx < 0 {
				x0 = 0
				sx = 0
			}
			if x0 > g.W-2 {
				x0 = g.W - 2
				if x0 < 0 {
					x0 = 0
				}
			}
			x1 := x0 + 1
			if x1 >= g.W {
				x1 = g.W - 1
			}
			wx := sx - float64(x0)
			if wx < 0 {
				wx = 0
			} else if wx > 1 {
				wx = 1
			}
			v00 := g.Data[y0*g.W+x0]
			v01 := g.Data[y0*g.W+x1]
			v10 := g.Data[y1*g.W+x0]
			v11 := g.Data[y1*g.W+x1]
			top := v00 + (v01-v00)*wx
			bot := v10 + (v11-v10)*wx
			out.Data[y*w+x] = top + (bot-top)*wy
		}
	}
	return out
}
