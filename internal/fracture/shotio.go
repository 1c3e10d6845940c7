package fracture

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cfaopc/internal/geom"
)

// WriteShotsCSV emits a circular shot list as "x_nm,y_nm,r_nm" rows — the
// interchange format a circular e-beam writer's data path would ingest.
// Shots are given in pixels and scaled by dxNM. Each value is written as
// fmt's %.1f writes it (strconv's 'f' format at one digit), one row
// buffer reused for the whole list.
func WriteShotsCSV(w io.Writer, shots []geom.Circle, dxNM float64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("x_nm,y_nm,r_nm\n"); err != nil {
		return err
	}
	var row []byte
	for _, s := range shots {
		row = strconv.AppendFloat(row[:0], s.X*dxNM, 'f', 1, 64)
		row = strconv.AppendFloat(append(row, ','), s.Y*dxNM, 'f', 1, 64)
		row = strconv.AppendFloat(append(row, ','), s.R*dxNM, 'f', 1, 64)
		if _, err := bw.Write(append(row, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadShotsCSV parses the format written by WriteShotsCSV, returning shots
// in pixels of a grid with dxNM nanometers per pixel.
func ReadShotsCSV(r io.Reader, dxNM float64) ([]geom.Circle, error) {
	if dxNM <= 0 {
		return nil, fmt.Errorf("fracture: invalid pixel size %g", dxNM)
	}
	sc := bufio.NewScanner(r)
	var shots []geom.Circle
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line == "x_nm,y_nm,r_nm" {
			continue
		}
		var x, y, rad float64
		if _, err := fmt.Sscanf(strings.ReplaceAll(line, ",", " "), "%g %g %g", &x, &y, &rad); err != nil {
			return nil, fmt.Errorf("fracture: shots line %d: %v", lineNo, err)
		}
		if rad <= 0 {
			return nil, fmt.Errorf("fracture: shots line %d: non-positive radius", lineNo)
		}
		shots = append(shots, geom.Circle{X: x / dxNM, Y: y / dxNM, R: rad / dxNM})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return shots, nil
}
