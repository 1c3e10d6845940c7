package gds

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"cfaopc/internal/layout"
)

func TestReal8RoundTrip(t *testing.T) {
	values := []float64{0, 1, -1, 1e-9, 1e-3, 0.5, 2048, 123456.789, -0.001953125}
	for _, v := range values {
		got := decodeReal8(encodeReal8(v))
		tol := math.Abs(v) * 1e-12
		if tol < 1e-300 {
			tol = 1e-300
		}
		if math.Abs(got-v) > tol {
			t.Errorf("real8 roundtrip %v → %v", v, got)
		}
	}
}

func TestReal8KnownEncoding(t *testing.T) {
	// 1.0 = 1/16 · 16^1 → exponent 65, mantissa 0x10 00 00 00 00 00 00.
	b := encodeReal8(1.0)
	want := [8]byte{0x41, 0x10, 0, 0, 0, 0, 0, 0}
	if b != want {
		t.Fatalf("encode(1.0) = % x, want % x", b, want)
	}
}

func TestReal8SpecialValues(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if b := encodeReal8(v); b != [8]byte{} {
			t.Errorf("encode(%v) should be zero bytes", v)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	l := &layout.Layout{
		Name:   "case1",
		TileNM: 2048,
		Rects: []layout.Rect{
			{X: 480, Y: 520, W: 80, H: 300},
			{X: 680, Y: 500, W: 120, H: 250},
			{X: 900, Y: 700, W: 60, H: 60},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, l, 10); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()), 10)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "case1" {
		t.Fatalf("name %q", got.Name)
	}
	if got.Area() != l.Area() {
		t.Fatalf("area %d, want %d", got.Area(), l.Area())
	}
	// Rect sets must match (order-independent).
	key := func(r layout.Rect) [4]int { return [4]int{r.X, r.Y, r.W, r.H} }
	want := map[[4]int]bool{}
	for _, r := range l.Rects {
		want[key(r)] = true
	}
	for _, r := range got.Rects {
		if !want[key(r)] {
			t.Fatalf("unexpected rect %+v", r)
		}
	}
	if len(got.Rects) != len(l.Rects) {
		t.Fatalf("rect count %d, want %d", len(got.Rects), len(l.Rects))
	}
}

func TestReadLayerFilter(t *testing.T) {
	l := &layout.Layout{Name: "x", TileNM: 1024, Rects: []layout.Rect{{X: 10, Y: 10, W: 20, H: 20}}}
	var buf bytes.Buffer
	if err := Write(&buf, l, 7); err != nil {
		t.Fatal(err)
	}
	// Wrong layer → no rects → validation fails on empty? Empty layout is
	// valid; just zero rects.
	got, err := Read(bytes.NewReader(buf.Bytes()), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rects) != 0 {
		t.Fatalf("layer filter leaked %d rects", len(got.Rects))
	}
	// Any-layer read sees it.
	got, err = Read(bytes.NewReader(buf.Bytes()), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rects) != 1 {
		t.Fatalf("any-layer read found %d rects", len(got.Rects))
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{0, 6, 0x10, 0x03, 1, 2}), -1); err == nil {
		t.Fatal("non-HEADER stream accepted")
	}
	if _, err := Read(bytes.NewReader([]byte{0, 3}), -1); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestWriteSuiteThroughGDS(t *testing.T) {
	// The full synthetic suite must survive a GDS round trip area-exactly.
	for _, l := range layout.GenerateSuite()[:4] {
		var buf bytes.Buffer
		if err := Write(&buf, l, 1); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()), 1)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if got.Area() != l.Area() {
			t.Fatalf("%s: area %d → %d", l.Name, l.Area(), got.Area())
		}
	}
}

func TestDecomposeRectilinearLShape(t *testing.T) {
	// Closed L-shaped hexagon.
	poly := []point{{0, 0}, {20, 0}, {20, 10}, {10, 10}, {10, 30}, {0, 30}, {0, 0}}
	rects, err := decomposeRectilinear(poly)
	if err != nil {
		t.Fatal(err)
	}
	area := 0
	for _, r := range rects {
		area += r.W * r.H
	}
	// L area = 20·10 + 10·20 = 400.
	if area != 400 {
		t.Fatalf("decomposed area %d, want 400", area)
	}
	// No overlaps.
	for i := range rects {
		for j := i + 1; j < len(rects); j++ {
			a, b := rects[i], rects[j]
			if a.X < b.X+b.W && b.X < a.X+a.W && a.Y < b.Y+b.H && b.Y < a.Y+a.H {
				t.Fatalf("rects %v and %v overlap", a, b)
			}
		}
	}
}

func TestDecomposeRejectsDiagonal(t *testing.T) {
	poly := []point{{0, 0}, {10, 10}, {0, 10}, {0, 0}}
	if _, err := decomposeRectilinear(poly); err == nil {
		t.Fatal("diagonal polygon accepted")
	}
}

// Property: random rectilinear staircase polygons decompose area-exactly.
func TestDecomposeStaircaseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		// Build a staircase: x-monotone rectilinear polygon.
		steps := rng.Intn(4) + 2
		xs := []int32{0}
		for i := 0; i < steps; i++ {
			xs = append(xs, xs[len(xs)-1]+int32(rng.Intn(20)+5))
		}
		heights := make([]int32, steps)
		for i := range heights {
			heights[i] = int32(rng.Intn(30) + 10)
		}
		var poly []point
		poly = append(poly, point{0, 0})
		for i := 0; i < steps; i++ {
			poly = append(poly, point{xs[i], heights[i]}, point{xs[i+1], heights[i]})
		}
		poly = append(poly, point{xs[steps], 0})
		wantArea := int64(0)
		for i := 0; i < steps; i++ {
			wantArea += int64(xs[i+1]-xs[i]) * int64(heights[i])
		}
		rects, err := decomposeRectilinear(poly)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := int64(0)
		for _, r := range rects {
			got += int64(r.W) * int64(r.H)
		}
		if got != wantArea {
			sort.Slice(rects, func(i, j int) bool { return rects[i].X < rects[j].X })
			t.Fatalf("trial %d: area %d, want %d (%v)", trial, got, wantArea, rects)
		}
	}
}

// decodeReal8 converts a GDSII 8-byte real back to float64.
func decodeReal8(b [8]byte) float64 {
	sign := 1.0
	if b[0]&0x80 != 0 {
		sign = -1
	}
	exp := int(b[0]&0x7f) - 64
	mant := 0.0
	scale := 1.0
	for i := 1; i < 8; i++ {
		scale /= 256
		mant += float64(b[i]) * scale
	}
	if mant == 0 {
		return 0
	}
	return sign * mant * math.Pow(16, float64(exp))
}
