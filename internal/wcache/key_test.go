package wcache

import (
	"math/rand"
	"testing"
)

// goldenDesc is a fixed descriptor whose key is pinned below. If either
// the pin test or FuzzWindowKey's seed corpus changes behavior, the
// canonical encoding changed: every persisted disk cache is invalid and
// keyVersion must be bumped deliberately, not by accident.
func goldenDesc() WindowDesc {
	raster := make([]float64, 6*6)
	for _, i := range []int{7, 8, 9, 13, 14, 15, 21} {
		raster[i] = 1
	}
	raster[22] = 0.75 // binarized: hashes identically to 1.0
	return WindowDesc{
		W: 6, H: 6, Raster: raster,
		Spans: []Span{{X0: 1, X1: 4, Y0: 1, Y1: 3}, {X0: 3, X1: 5, Y0: 3, Y1: 4}},
		CoreX: 1, CoreY: 1, CoreW: 4, CoreH: 4,
	}
}

const goldenPrefix = "cfaopc-flow-test-prefix 0011223344556677"

// goldenKey is the pinned canonical key for (goldenPrefix, goldenDesc).
const goldenKey = Key("e7dc299043d378daf0638ad3482cc7e9d29bc66fc1e51f940f790050436db294")

func TestWindowKeyGoldenPin(t *testing.T) {
	got := WindowKey(goldenPrefix, goldenDesc())
	if got != goldenKey {
		t.Fatalf("canonical key encoding changed:\n got  %s\n want %s\n"+
			"If this is intentional, bump keyVersion and update the pin — persisted caches are invalid.", got, goldenKey)
	}
}

func TestWindowKeyBinarizesRaster(t *testing.T) {
	d := goldenDesc()
	base := WindowKey(goldenPrefix, d)
	d.Raster[22] = 1.0 // was 0.75; both are foreground
	if WindowKey(goldenPrefix, d) != base {
		t.Fatal("raster amplitude above threshold changed the key")
	}
	d.Raster[22] = 0.4 // drops below threshold: background now
	if WindowKey(goldenPrefix, d) == base {
		t.Fatal("flipping a pixel below threshold kept the key")
	}
}

func TestWindowKeySensitivity(t *testing.T) {
	base := WindowKey(goldenPrefix, goldenDesc())
	mutants := map[string]func() (string, WindowDesc){
		"prefix":  func() (string, WindowDesc) { return goldenPrefix + "x", goldenDesc() },
		"pixel":   func() (string, WindowDesc) { d := goldenDesc(); d.Raster[0] = 1; return goldenPrefix, d },
		"span-x1": func() (string, WindowDesc) { d := goldenDesc(); d.Spans[0].X1++; return goldenPrefix, d },
		"span-y0": func() (string, WindowDesc) { d := goldenDesc(); d.Spans[1].Y0--; return goldenPrefix, d },
		"span-drop": func() (string, WindowDesc) {
			d := goldenDesc()
			d.Spans = d.Spans[:1]
			return goldenPrefix, d
		},
		"core-x": func() (string, WindowDesc) { d := goldenDesc(); d.CoreX++; return goldenPrefix, d },
		"core-w": func() (string, WindowDesc) { d := goldenDesc(); d.CoreW--; return goldenPrefix, d },
	}
	for name, m := range mutants {
		prefix, d := m()
		if WindowKey(prefix, d) == base {
			t.Fatalf("perturbation %q did not change the key", name)
		}
	}
	// Dimension swap with identical pixel count must not collide: the
	// dims are hashed, not just the flattened raster.
	d := goldenDesc()
	d.W, d.H = 4, 9
	if WindowKey(goldenPrefix, d) == base {
		t.Fatal("reshaped raster collided")
	}
}

// FuzzWindowKey drives the two load-bearing properties of the key:
// determinism (equal inputs collide — this is what lets a translated
// twin window hit, since descriptors are already window-local) and
// sensitivity (any single bit of raster, span, core, or prefix flips
// the key).
func FuzzWindowKey(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(6), uint16(3), "prefix-a")
	f.Add(int64(42), uint8(1), uint8(1), uint16(0), "")
	f.Add(int64(7), uint8(32), uint8(9), uint16(500), "cfaopc-flow-v3 deadbeef")
	f.Fuzz(func(t *testing.T, seed int64, w8, h8 uint8, mut uint16, prefix string) {
		w := 1 + int(w8)%32
		h := 1 + int(h8)%32
		rng := rand.New(rand.NewSource(seed))
		d := WindowDesc{W: w, H: h, Raster: make([]float64, w*h)}
		for i := range d.Raster {
			if rng.Intn(3) == 0 {
				d.Raster[i] = 1
			}
		}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			x0, y0 := rng.Intn(w), rng.Intn(h)
			d.Spans = append(d.Spans, Span{X0: x0, X1: x0 + 1 + rng.Intn(w-x0), Y0: y0, Y1: y0 + 1 + rng.Intn(h-y0)})
		}
		d.CoreX, d.CoreY = rng.Intn(w), rng.Intn(h)
		d.CoreW, d.CoreH = 1+rng.Intn(w-d.CoreX), 1+rng.Intn(h-d.CoreY)

		base := WindowKey(prefix, d)

		// Determinism: a deep copy built the same way hashes the same.
		cp := d
		cp.Raster = append([]float64(nil), d.Raster...)
		cp.Spans = append([]Span(nil), d.Spans...)
		if WindowKey(prefix, cp) != base {
			t.Fatal("equal descriptors produced different keys")
		}

		// Sensitivity: flip one raster pixel.
		i := int(mut) % len(d.Raster)
		cp.Raster[i] = 1 - cp.Raster[i]
		if WindowKey(prefix, cp) == base {
			t.Fatalf("pixel %d flip kept the key", i)
		}
		cp.Raster[i] = 1 - cp.Raster[i]

		// Sensitivity: perturb one span coordinate, or add a span when
		// there are none.
		if len(cp.Spans) > 0 {
			j := int(mut) % len(cp.Spans)
			cp.Spans[j].X1++
			if WindowKey(prefix, cp) == base {
				t.Fatalf("span %d perturbation kept the key", j)
			}
			cp.Spans[j].X1--
		} else {
			cp.Spans = []Span{{X0: 0, X1: 1, Y0: 0, Y1: 1}}
			if WindowKey(prefix, cp) == base {
				t.Fatal("added span kept the key")
			}
			cp.Spans = nil
		}

		// Sensitivity: config fingerprint.
		if WindowKey(prefix+"\x00", d) == base {
			t.Fatal("prefix perturbation kept the key")
		}

		// Sensitivity: core geometry.
		cp.CoreY++
		if WindowKey(prefix, cp) == base {
			t.Fatal("core shift kept the key")
		}
	})
}
