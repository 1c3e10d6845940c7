package layout

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"cfaopc/internal/testkit/gridkit"
)

func TestValidate(t *testing.T) {
	good := &Layout{Name: "ok", TileNM: 100, Rects: []Rect{{10, 10, 20, 20}, {40, 10, 20, 20}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	cases := []*Layout{
		{Name: "neg", TileNM: 100, Rects: []Rect{{10, 10, 0, 5}}},
		{Name: "oob", TileNM: 100, Rects: []Rect{{90, 90, 20, 20}}},
		{Name: "overlap", TileNM: 100, Rects: []Rect{{10, 10, 30, 30}, {20, 20, 30, 30}}},
		{Name: "tile", TileNM: 0},
	}
	for _, l := range cases {
		if err := l.Validate(); err == nil {
			t.Errorf("layout %q passed validation", l.Name)
		}
	}
	// Touching rects are allowed (L-shapes).
	touch := &Layout{Name: "touch", TileNM: 100, Rects: []Rect{{10, 10, 20, 20}, {10, 30, 20, 20}}}
	if err := touch.Validate(); err != nil {
		t.Fatalf("touching rects rejected: %v", err)
	}
}

func TestRasterizeExactAtOneNM(t *testing.T) {
	l := &Layout{Name: "t", TileNM: 64, Rects: []Rect{{5, 7, 11, 13}, {30, 30, 8, 8}}}
	m := l.Rasterize(64)
	if got, want := int(gridkit.Sum(m)), l.Area(); got != want {
		t.Fatalf("raster area %d != polygon area %d", got, want)
	}
	// Check exact placement of one rect.
	if m.At(5, 7) != 1 || m.At(15, 19) != 1 || m.At(16, 7) != 0 || m.At(5, 20) != 0 {
		t.Fatal("raster boundary misplaced")
	}
}

func TestRasterizeCoarse(t *testing.T) {
	l := &Layout{Name: "t", TileNM: 64, Rects: []Rect{{8, 8, 32, 32}}}
	m := l.Rasterize(16) // 4 nm/px
	// 32nm square → 8×8 px = 64 px.
	if got := int(gridkit.Sum(m)); got != 64 {
		t.Fatalf("coarse raster = %d px, want 64", got)
	}
}

func TestWriteParseRoundtrip(t *testing.T) {
	l := &Layout{Name: "case7", TileNM: 2048, Rects: []Rect{{480, 520, 80, 300}, {680, 500, 100, 250}}}
	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != l.Name || got.TileNM != l.TileNM || len(got.Rects) != len(l.Rects) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	for i := range l.Rects {
		if got.Rects[i] != l.Rects[i] {
			t.Fatalf("rect %d mismatch: %v vs %v", i, got.Rects[i], l.Rects[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown directive":   "FOO 1 2\n",
		"bad rect arity":      "RECT 1 2 3\n",
		"bad rect value":      "RECT a b c d\n",
		"bad tile":            "TILE abc\n",
		"name arity":          "NAME\n",
		"overlapping content": "TILE 100\nRECT 10 10 30 30\nRECT 20 20 30 30\n",
	}
	for name, text := range cases {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestParseSkipsCommentsAndBlank(t *testing.T) {
	text := "# header\n\nNAME x\nTILE 100\n# inner\nRECT 1 1 5 5\n"
	l, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "x" || len(l.Rects) != 1 {
		t.Fatalf("parsed %+v", l)
	}
}

func TestGenerateSuiteAreasMatchPaper(t *testing.T) {
	suite := GenerateSuite()
	if len(suite) != 10 {
		t.Fatalf("suite has %d cases", len(suite))
	}
	for i, l := range suite {
		if err := l.Validate(); err != nil {
			t.Errorf("%s invalid: %v", l.Name, err)
		}
		if got, want := l.Area(), PaperAreas[i]; got != want {
			t.Errorf("%s area %d, want %d", l.Name, got, want)
		}
		if l.TileNM != 2048 {
			t.Errorf("%s tile %d, want 2048", l.Name, l.TileNM)
		}
	}
}

func TestGenerateSuiteDeterministic(t *testing.T) {
	a := GenerateSuite()
	b := GenerateSuite()
	for i := range a {
		if len(a[i].Rects) != len(b[i].Rects) {
			t.Fatalf("case %d not deterministic", i+1)
		}
		for j := range a[i].Rects {
			if a[i].Rects[j] != b[i].Rects[j] {
				t.Fatalf("case %d rect %d differs between runs", i+1, j)
			}
		}
	}
}

// TestSuiteCaseIsGenerateSuites: one case alone is the same layout the
// whole suite holds at its index.
func TestSuiteCaseIsGenerateSuites(t *testing.T) {
	for i, want := range GenerateSuite() {
		if got := SuiteCase(i + 1); !reflect.DeepEqual(got, want) {
			t.Errorf("SuiteCase(%d) = %+v, want %+v", i+1, got, want)
		}
	}
}

func TestGenerateSuiteRasterizesExactAtFullRes(t *testing.T) {
	// At 1 nm/px the raster must reproduce the polygon area exactly.
	for _, l := range GenerateSuite()[:3] {
		m := l.Rasterize(2048)
		if got, want := int(gridkit.Sum(m)), l.Area(); got != want {
			t.Fatalf("%s raster area %d != %d", l.Name, got, want)
		}
	}
}

func TestSuiteFeaturesInCentralRegion(t *testing.T) {
	for _, l := range GenerateSuite() {
		for _, r := range l.Rects {
			if r.X < 256 || r.Y < 256 || r.X+r.W > 1792 || r.Y+r.H > 1792 {
				t.Errorf("%s rect %+v outside central region", l.Name, r)
			}
		}
	}
}
