package layout

import (
	"fmt"
	"math/rand"
)

// PaperAreas lists the per-case polygon areas (nm²) from Table 2 of the
// paper; the synthetic suite reproduces them exactly.
var PaperAreas = []int{
	215344, 169280, 213504, 82560, 281958,
	286234, 229149, 128544, 317581, 102400,
}

// GenerateSuite synthesizes the ten-case benchmark suite. The real
// ICCAD-2013 layouts are proprietary contest data, so each case is a
// deterministic 32nm-node-style metal pattern — vertical bars with optional
// hammer heads in the central region of a 2048 nm tile — whose total
// polygon area equals the corresponding PaperAreas entry. Case 10 is a
// single 320×320 square (the published area is exactly 320²).
func GenerateSuite() []*Layout {
	suite := make([]*Layout, len(PaperAreas))
	for i := range suite {
		suite[i] = SuiteCase(i + 1)
	}
	return suite
}

// SuiteCase synthesizes case id (1..10) of GenerateSuite alone.
func SuiteCase(id int) *Layout {
	area := PaperAreas[id-1]
	l := &Layout{Name: fmt.Sprintf("case%d", id), TileNM: 2048}
	if area == 102400 { // case10: one 320×320 block, centered
		l.Rects = append(l.Rects, Rect{X: 864, Y: 864, W: 320, H: 320})
		mustValidate(l, area)
		return l
	}

	rng := rand.New(rand.NewSource(int64(1000 + id)))
	nBars := area/60000 + 1
	if nBars < 3 {
		nBars = 3
	}
	if nBars > 5 {
		nBars = 5
	}
	widths := []int{60, 80, 100, 120}

	remaining := area
	for k := 0; k < nBars-1; k++ {
		laneX := 480 + 200*k
		w := widths[rng.Intn(len(widths))]
		barArea := area / nBars
		var headRect *Rect
		y0 := 480 + rng.Intn(100)
		if rng.Float64() < 0.4 {
			// Hammer head: a wider block touching the bar's top.
			hw, hh := w+40, 60
			headRect = &Rect{X: laneX - 20, Y: y0, W: hw, H: hh}
			barArea -= hw * hh
		}
		lenNM := barArea / w
		if lenNM < 150 {
			lenNM = 150
		}
		if lenNM > 900 {
			lenNM = 900
		}
		barY := y0
		if headRect != nil {
			barY = y0 + headRect.H
			l.Rects = append(l.Rects, *headRect)
		}
		bar := Rect{X: laneX, Y: barY, W: w, H: lenNM}
		l.Rects = append(l.Rects, bar)
		remaining -= bar.Area()
		if headRect != nil {
			remaining -= headRect.Area()
		}
	}

	// Final lane absorbs the exact remainder: an 80 nm bar plus, when the
	// remainder is not a multiple of 80, a thin jog strip flush against the
	// bar's bottom edge so the polygon area matches the paper to the nm².
	laneX := 480 + 200*(nBars-1)
	const w = 80
	lenNM := remaining / w
	rem := remaining % w
	y0 := 520
	l.Rects = append(l.Rects, Rect{X: laneX, Y: y0, W: w, H: lenNM})
	if rem > 0 {
		l.Rects = append(l.Rects, Rect{X: laneX, Y: y0 + lenNM, W: rem, H: 1})
	}
	mustValidate(l, area)
	return l
}

func mustValidate(l *Layout, wantArea int) {
	if err := l.Validate(); err != nil {
		panic(fmt.Sprintf("layout: generated suite invalid: %v", err))
	}
	if got := l.Area(); got != wantArea {
		panic(fmt.Sprintf("layout: %s area %d != target %d", l.Name, got, wantArea))
	}
}
