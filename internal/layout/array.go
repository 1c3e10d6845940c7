package layout

import "fmt"

// ArrayConfig controls the repeated-cell layout generator, the dedup
// stress companion to the fixed suite: an R×C array of pixel-identical
// cells is the best case for the window cache, and the margins below
// are chosen so every cell window really is pixel-identical.
type ArrayConfig struct {
	TileNM   int // tile edge (default 2048)
	PitchXNM int // horizontal cell pitch (default TileNM/cols)
	PitchYNM int // vertical cell pitch (default TileNM/rows)
	// CellRects is the motif repeated at every cell, in cell-local nm
	// coordinates within [0, PitchX) × [0, PitchY). The default is a
	// two-bar motif inset by a quarter pitch on every side, so a window
	// whose halo stays under that margin sees nothing of the neighbor
	// cells and all cell windows hash identically.
	CellRects []Rect
}

func (c *ArrayConfig) fillDefaults(rows, cols int) {
	if c.TileNM == 0 {
		c.TileNM = 2048
	}
	if c.PitchXNM == 0 {
		c.PitchXNM = c.TileNM / cols
	}
	if c.PitchYNM == 0 {
		c.PitchYNM = c.TileNM / rows
	}
	if len(c.CellRects) == 0 {
		p := c.PitchXNM
		if c.PitchYNM < p {
			p = c.PitchYNM
		}
		m := p / 4 // margin: keeps halos ≤ m blind to neighbors
		c.CellRects = []Rect{
			{X: m, Y: m, W: p / 2, H: p / 8},
			{X: m, Y: p / 2, W: p / 8, H: p / 4},
		}
	}
}

// GenerateArray produces a rows×cols array of one repeated cell — the
// memory-array / std-cell-row regularity real masks have and the window
// dedup cache exploits. Cells are placed at (col·PitchX, row·PitchY);
// cells that would overhang the tile are skipped. A non-positive array,
// tile, pitch or motif size is an error, found before any cell is
// placed: too many cells for the tile leave a pitch or a motif bar of
// zero nm.
func GenerateArray(rows, cols int, cfg ArrayConfig) (*Layout, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("layout: invalid array %dx%d", rows, cols)
	}
	cfg.fillDefaults(rows, cols)
	l := &Layout{Name: fmt.Sprintf("array%dx%d", rows, cols), TileNM: cfg.TileNM}
	if cfg.TileNM <= 0 || cfg.PitchXNM <= 0 || cfg.PitchYNM <= 0 {
		return nil, fmt.Errorf("layout: %s: non-positive tile %d nm or pitch %dx%d nm", l.Name, cfg.TileNM, cfg.PitchXNM, cfg.PitchYNM)
	}
	for i, cr := range cfg.CellRects {
		if cr.W <= 0 || cr.H <= 0 {
			return nil, fmt.Errorf("layout: %s: motif rect %d is %dx%d nm at a %dx%d nm pitch on a %d nm tile",
				l.Name, i, cr.W, cr.H, cfg.PitchXNM, cfg.PitchYNM, cfg.TileNM)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			ox, oy := c*cfg.PitchXNM, r*cfg.PitchYNM
			for _, cr := range cfg.CellRects {
				rect := Rect{X: ox + cr.X, Y: oy + cr.Y, W: cr.W, H: cr.H}
				if rect.X+rect.W > cfg.TileNM || rect.Y+rect.H > cfg.TileNM {
					continue
				}
				l.Rects = append(l.Rects, rect)
			}
		}
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("layout: array generator produced an invalid layout: %w", err)
	}
	return l, nil
}
