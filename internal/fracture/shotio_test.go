package fracture

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cfaopc/internal/geom"
)

func TestShotsCSVRoundTrip(t *testing.T) {
	shots := []geom.Circle{
		{X: 10, Y: 20, R: 3},
		{X: 100.5, Y: 0, R: 19},
	}
	var buf bytes.Buffer
	if err := WriteShotsCSV(&buf, shots, 4); err != nil {
		t.Fatal(err)
	}
	back, err := ReadShotsCSV(bytes.NewReader(buf.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip lost shots: %d", len(back))
	}
	for i := range shots {
		if math.Abs(back[i].X-shots[i].X) > 0.05 || math.Abs(back[i].R-shots[i].R) > 0.05 {
			t.Fatalf("shot %d drifted: %+v vs %+v", i, back[i], shots[i])
		}
	}
}

func TestReadShotsCSVErrors(t *testing.T) {
	if _, err := ReadShotsCSV(strings.NewReader("1,2,3\n"), 0); err == nil {
		t.Error("zero dx accepted")
	}
	if _, err := ReadShotsCSV(strings.NewReader("a,b,c\n"), 4); err == nil {
		t.Error("garbage row accepted")
	}
	if _, err := ReadShotsCSV(strings.NewReader("10,10,-5\n"), 4); err == nil {
		t.Error("negative radius accepted")
	}
	// Header-only and empty input are fine.
	got, err := ReadShotsCSV(strings.NewReader("x_nm,y_nm,r_nm\n"), 4)
	if err != nil || len(got) != 0 {
		t.Errorf("header-only input: %v, %d shots", err, len(got))
	}
}

// TestWriteShotsCSVMatchesFmt holds the row builder to the fmt rows it
// replaced, byte for byte: random values at several pitches, signed
// zeros, values past 2^53, and exact ties at the rounded digit (n.25 and
// n.75, rounded half to even) beside the inexact x.x5 decimals.
func TestWriteShotsCSVMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	shots := []geom.Circle{
		{X: math.Copysign(0, -1), Y: 0, R: -0.04},
		{X: 1e17, Y: -3.5e22, R: math.MaxFloat64},
		{X: 0.25, Y: 0.75, R: 2.25},
		{X: -1.75, Y: 0.05, R: 0.15},
		{X: 1.35, Y: 2.45, R: 1e-300},
	}
	for i := 0; i < 2000; i++ {
		shots = append(shots, geom.Circle{X: rng.NormFloat64() * 1e4, Y: float64(rng.Intn(80000)) / 4, R: rng.Float64() * 60})
	}
	for _, dx := range []float64{1, 2, 8, 2048.0 / 192, 0.1} {
		want := "x_nm,y_nm,r_nm\n"
		for _, s := range shots {
			want += fmt.Sprintf("%.1f,%.1f,%.1f\n", s.X*dx, s.Y*dx, s.R*dx)
		}
		var got bytes.Buffer
		if err := WriteShotsCSV(&got, shots, dx); err != nil {
			t.Fatal(err)
		}
		if got.String() != want {
			g, w := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
			for k := range w {
				if k >= len(g) || g[k] != w[k] {
					t.Fatalf("dx %g: row %d is %q, fmt writes %q", dx, k, g[min(k, len(g)-1)], w[k])
				}
			}
			t.Fatalf("dx %g: %d bytes written, fmt writes %d", dx, got.Len(), len(want))
		}
	}
}
