package layout_test

import (
	"testing"
	"testing/quick"

	"cfaopc/internal/testkit/layoutkit"
)

func TestGenerateRandomValidAndDeterministic(t *testing.T) {
	a := layoutkit.GenerateRandom(7, layoutkit.RandomConfig{})
	b := layoutkit.GenerateRandom(7, layoutkit.RandomConfig{})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Rects) == 0 {
		t.Fatal("no features placed")
	}
	if len(a.Rects) != len(b.Rects) {
		t.Fatal("not deterministic")
	}
	for i := range a.Rects {
		if a.Rects[i] != b.Rects[i] {
			t.Fatal("rects differ across runs")
		}
	}
	c := layoutkit.GenerateRandom(8, layoutkit.RandomConfig{})
	same := len(a.Rects) == len(c.Rects)
	if same {
		for i := range a.Rects {
			if a.Rects[i] != c.Rects[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical layouts")
	}
}

// Property: any seed yields a valid layout respecting spacing and margins.
func TestGenerateRandomProperty(t *testing.T) {
	cfg := layoutkit.RandomConfig{Features: 6, SpacingNM: 100, MarginNM: 300}
	f := func(seed int64) bool {
		l := layoutkit.GenerateRandom(seed, cfg)
		if l.Validate() != nil {
			return false
		}
		for i, r := range l.Rects {
			if r.X < 300 || r.Y < 300 || r.X+r.W > l.TileNM-300 || r.Y+r.H > l.TileNM-300 {
				return false
			}
			for j := i + 1; j < len(l.Rects); j++ {
				o := l.Rects[j]
				// Gap of at least SpacingNM in at least one axis.
				xGap := maxOf(o.X-(r.X+r.W), r.X-(o.X+o.W))
				yGap := maxOf(o.Y-(r.Y+r.H), r.Y-(o.Y+o.H))
				if xGap < 100 && yGap < 100 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestGenerateRandomCrowdedTileDegradesGracefully(t *testing.T) {
	// Ask for far more features than fit: must not hang or panic.
	cfg := layoutkit.RandomConfig{Features: 200, TileNM: 1024, MarginNM: 200, SpacingNM: 150}
	l := layoutkit.GenerateRandom(3, cfg)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(l.Rects) >= 200 {
		t.Fatal("impossibly dense placement")
	}
}
