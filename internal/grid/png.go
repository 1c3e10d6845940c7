package grid

import (
	"image"
	"image/color"
	"image/png"
	"os"
)

// GridPNG writes a grid as an 8-bit grayscale PNG, mapping [0, max] to
// [black, white]. Values above max saturate.
func GridPNG(g *Real, path string) error {
	max := g.MaxAbs()
	if max == 0 {
		max = 1
	}
	img := image.NewGray(image.Rect(0, 0, g.W, g.H))
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			v := g.At(x, y) / max
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			img.SetGray(x, y, color.Gray{Y: uint8(v * 255)})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return png.Encode(f, img)
}
