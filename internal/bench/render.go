package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"cfaopc/internal/grid"
)

// RenderCase writes the Figure-6 style triptych (target, optimized mask,
// printed image) for case ci of a CircleOpt run into dir, returning the
// written file paths.
func (r *Runner) RenderCase(ci int, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	_, res := r.RunCircleOpt(ci, r.Opt.SampleDistNM, r.Opt.Gamma)
	sim := r.Sim.Simulate(res.Mask)
	name := r.Suite[ci].Name
	files := []struct {
		g    *grid.Real
		path string
	}{
		{r.Targets[ci], filepath.Join(dir, fmt.Sprintf("%s_target.png", name))},
		{res.Mask, filepath.Join(dir, fmt.Sprintf("%s_mask.png", name))},
		{sim.ZNom, filepath.Join(dir, fmt.Sprintf("%s_printed.png", name))},
	}
	var out []string
	for _, f := range files {
		if err := grid.GridPNG(f.g, f.path); err != nil {
			return nil, err
		}
		out = append(out, f.path)
	}
	return out, nil
}
