package fracture

import (
	"bytes"
	"math"
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
