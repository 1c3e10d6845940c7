// Package engine names the optimizer chain. It adapts each named method
// to the flow.Optimizer signature so one dispatch serves the flow and —
// via quarantine.EngineMeta — the offline bundle replay in
// cmd/replaytile: a bundle records the engine names and knobs, and
// FromMeta rebuilds the exact optimizers a failed run was using, on
// another machine, from nothing but the bundle.
package engine

import (
	"fmt"
	"strings"

	"cfaopc/internal/core"
	"cfaopc/internal/flow"
	"cfaopc/internal/fracture"
	"cfaopc/internal/geom"
	"cfaopc/internal/grid"
	"cfaopc/internal/ilt"
	"cfaopc/internal/litho"
	"cfaopc/internal/quarantine"
)

// Options are the resolution-independent knobs every engine shares;
// resolution-dependent settings derive from the simulator each call
// sees. The zero value is not useful — use Defaults.
type Options struct {
	Iters    int     // optimization iterations
	Gamma    float64 // CircleOpt sparsity weight at the paper's 1 nm/px scale
	SampleNM float64 // circle sample distance in nm
}

// Defaults are what a job spec that names no knob resolves to
// (JobSpec.Normalize, and through it cmd/cfaopc's flag defaults).
func Defaults() Options { return Options{Iters: 60, Gamma: 3, SampleNM: 32} }

// Names lists the accepted method names.
func Names() []string {
	return []string{"circlerule", "circleopt", "greedy", "develset", "neuralilt", "multiilt"}
}

// Meta records a primary/fallback pair and its knobs for embedding in
// flow.Config (and from there into quarantine bundles). fallback may be
// "" when no fallback is configured.
func Meta(primary, fallback string, o Options) quarantine.EngineMeta {
	return quarantine.EngineMeta{
		Primary:  strings.ToLower(primary),
		Fallback: strings.ToLower(fallback),
		Iters:    o.Iters,
		Gamma:    o.Gamma,
		SampleNM: o.SampleNM,
	}
}

// FromMeta rebuilds the optimizer chain a bundle's run was using. The
// fallback is nil when the meta records none.
func FromMeta(m quarantine.EngineMeta) (primary, fallback flow.Optimizer, err error) {
	o := Options{Iters: m.Iters, Gamma: m.Gamma, SampleNM: m.SampleNM}
	primary, err = For(m.Primary, o)
	if err != nil {
		return nil, nil, err
	}
	if m.Fallback != "" && !strings.EqualFold(m.Fallback, "none") {
		fallback, err = For(m.Fallback, o)
		if err != nil {
			return nil, nil, err
		}
	}
	return primary, fallback, nil
}

// For adapts a named method to the flow.Optimizer signature.
func For(method string, o Options) (flow.Optimizer, error) {
	ruleFor := func(sim *litho.Simulator) fracture.CircleRuleConfig {
		cfg := fracture.DefaultCircleRuleConfig(sim.DX)
		sample := int(o.SampleNM / sim.DX)
		if sample < 1 {
			sample = 1
		}
		cfg.SampleDist = sample
		return cfg
	}
	switch strings.ToLower(method) {
	case "circlerule":
		// No optimization at all: rule-based circle fracturing of the
		// rasterized target. The cheapest engine here, and the default
		// graceful-degradation fallback for the tiled flow.
		return func(sim *litho.Simulator, target *grid.Real) []geom.Circle {
			return fracture.CircleRule(target, ruleFor(sim))
		}, nil
	case "circleopt":
		return func(sim *litho.Simulator, target *grid.Real) []geom.Circle {
			coCfg := core.DefaultConfig(sim.DX)
			coCfg.Iterations = o.Iters
			coCfg.Gamma = o.Gamma / sim.DX // knob is in the paper's 1 nm/px scale
			return (&core.CircleOpt{Cfg: coCfg, RuleCfg: ruleFor(sim)}).Optimize(sim, target).Shots
		}, nil
	case "greedy":
		return func(sim *litho.Simulator, target *grid.Real) []geom.Circle {
			iltCfg := ilt.DefaultConfig()
			iltCfg.Iterations = o.Iters
			pixel := (&ilt.MultiLevel{Cfg: iltCfg}).Optimize(sim, target)
			rule := ruleFor(sim)
			return fracture.GreedyCircles(pixel, fracture.GreedyCircleConfig{
				RMin: rule.RMin, RMax: rule.RMax, CoverThreshold: rule.CoverThreshold,
			})
		}, nil
	case "develset", "neuralilt", "multiilt":
		mk := func() ilt.Engine {
			iltCfg := ilt.DefaultConfig()
			iltCfg.Iterations = o.Iters
			switch strings.ToLower(method) {
			case "develset":
				return &ilt.LevelSet{Cfg: iltCfg}
			case "neuralilt":
				return &ilt.CycleILT{Cfg: iltCfg}
			default:
				return &ilt.MultiLevel{Cfg: iltCfg}
			}
		}
		return func(sim *litho.Simulator, target *grid.Real) []geom.Circle {
			return fracture.CircleRule(mk().Optimize(sim, target), ruleFor(sim))
		}, nil
	default:
		return nil, fmt.Errorf("unknown method %q (have %s)", method, strings.Join(Names(), " | "))
	}
}
