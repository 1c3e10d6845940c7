package gds

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cfaopc/internal/layout"
)

// record is one decoded GDSII record.
type record struct {
	typ  byte
	dt   byte
	data []byte
}

// writeRecord emits one record with its 4-byte header.
func writeRecord(w io.Writer, typ, dt byte, data []byte) error {
	n := len(data) + 4
	if len(data)%2 != 0 {
		return fmt.Errorf("gds: odd record payload for %s", recName(typ))
	}
	hdr := []byte{byte(n >> 8), byte(n), typ, dt}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

func int16Bytes(vs ...int16) []byte {
	out := make([]byte, 2*len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint16(out[2*i:], uint16(v))
	}
	return out
}

func int32Bytes(vs ...int32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

func asciiBytes(s string) []byte {
	b := []byte(s)
	if len(b)%2 != 0 {
		b = append(b, 0)
	}
	return b
}

// Write serializes a layout as a GDSII library: one structure named after
// the layout, one BOUNDARY per rectangle on the given layer, database unit
// 1 nm (user unit 1 µm).
func Write(w io.Writer, l *layout.Layout, layer int16) error {
	if err := l.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	now := time.Date(2024, 6, 23, 0, 0, 0, 0, time.UTC) // deterministic stamp
	stamp := int16Bytes(
		int16(now.Year()), int16(now.Month()), int16(now.Day()),
		int16(now.Hour()), int16(now.Minute()), int16(now.Second()),
		int16(now.Year()), int16(now.Month()), int16(now.Day()),
		int16(now.Hour()), int16(now.Minute()), int16(now.Second()),
	)
	if err := writeRecord(bw, recHEADER, dtInt16, int16Bytes(600)); err != nil {
		return err
	}
	if err := writeRecord(bw, recBGNLIB, dtInt16, stamp); err != nil {
		return err
	}
	if err := writeRecord(bw, recLIBNAME, dtASCII, asciiBytes("CFAOPC")); err != nil {
		return err
	}
	// UNITS: user unit = 1e-3 (µm per db unit ratio), db unit = 1e-9 m (1 nm).
	units := append([]byte{}, realBytes(1e-3)...)
	units = append(units, realBytes(1e-9)...)
	if err := writeRecord(bw, recUNITS, dtReal8, units); err != nil {
		return err
	}
	if err := writeRecord(bw, recBGNSTR, dtInt16, stamp); err != nil {
		return err
	}
	name := l.Name
	if name == "" {
		name = "TOP"
	}
	if err := writeRecord(bw, recSTRNAME, dtASCII, asciiBytes(name)); err != nil {
		return err
	}
	for _, r := range l.Rects {
		if err := writeRecord(bw, recBOUNDARY, dtNone, nil); err != nil {
			return err
		}
		if err := writeRecord(bw, recLAYER, dtInt16, int16Bytes(layer)); err != nil {
			return err
		}
		if err := writeRecord(bw, recDATATYPE, dtInt16, int16Bytes(0)); err != nil {
			return err
		}
		x0, y0 := int32(r.X), int32(r.Y)
		x1, y1 := int32(r.X+r.W), int32(r.Y+r.H)
		xy := int32Bytes(x0, y0, x1, y0, x1, y1, x0, y1, x0, y0)
		if err := writeRecord(bw, recXY, dtInt32, xy); err != nil {
			return err
		}
		if err := writeRecord(bw, recENDEL, dtNone, nil); err != nil {
			return err
		}
	}
	if err := writeRecord(bw, recENDSTR, dtNone, nil); err != nil {
		return err
	}
	if err := writeRecord(bw, recENDLIB, dtNone, nil); err != nil {
		return err
	}
	return bw.Flush()
}

func realBytes(v float64) []byte {
	b := encodeReal8(v)
	return b[:]
}

// readRecord decodes the next record; io.EOF at a record boundary means a
// clean end of stream.
func readRecord(r *bufio.Reader) (*record, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("gds: truncated record header")
		}
		return nil, err
	}
	n := int(hdr[0])<<8 | int(hdr[1])
	if n < 4 {
		return nil, fmt.Errorf("gds: invalid record length %d", n)
	}
	rec := &record{typ: hdr[2], dt: hdr[3], data: make([]byte, n-4)}
	if _, err := io.ReadFull(r, rec.data); err != nil {
		return nil, fmt.Errorf("gds: truncated %s record", recName(rec.typ))
	}
	return rec, nil
}

// point is a polygon vertex in database units.
type point struct{ x, y int32 }

// Limits bounds the memory Read may commit to one stream. A GDSII file
// is attacker-controllable input (record counts, vertex counts, and the
// rectangle decomposition can all be inflated far beyond the stream's
// own size), so the reader refuses, with an error, rather than growing
// unbounded.
type Limits struct {
	// MaxRecords caps the total records decoded from the stream.
	MaxRecords int
	// MaxPolyVertices caps the vertices accumulated for one BOUNDARY
	// (XY records within a boundary concatenate).
	MaxPolyVertices int
	// MaxRects caps the rectangles produced by decomposing all accepted
	// boundaries — the decomposition of a V-vertex polygon can be
	// superlinear in V, so this is the true memory ceiling.
	MaxRects int
}

// DefaultLimits is sized far beyond any layout this repository handles
// (a full tile suite is a few thousand rectangles) while still bounding
// a hostile stream to tens of megabytes of decoded state.
func DefaultLimits() Limits {
	return Limits{
		MaxRecords:      1 << 20,
		MaxPolyVertices: 1 << 15,
		MaxRects:        1 << 20,
	}
}

// Read parses a GDSII stream and returns the boundaries of the requested
// layer (-1 = any layer) of the first structure, decomposed into
// rectangles. TileNM is set to the bounding extent rounded up; callers can
// override. Resource use is bounded by DefaultLimits; use ReadWithLimits
// to tighten or loosen the caps.
func Read(r io.Reader, layer int16) (*layout.Layout, error) {
	return ReadWithLimits(r, layer, DefaultLimits())
}

// ReadFile loads a layout file by its extension: a .gds file (any case)
// is a GDSII stream read on every layer, anything else the GLP text
// format (layout.Parse). It is the one place a layout file's format is
// chosen, so every tool that accepts a layout path accepts both.
func ReadFile(path string) (*layout.Layout, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.EqualFold(filepath.Ext(path), ".gds") {
		return Read(f, -1)
	}
	return layout.Parse(f)
}

// ReadWithLimits is Read under explicit resource caps: exceeding any
// limit returns an error instead of growing without bound.
func ReadWithLimits(r io.Reader, layer int16, lim Limits) (*layout.Layout, error) {
	br := bufio.NewReader(r)
	first, err := readRecord(br)
	if err != nil {
		return nil, err
	}
	if first.typ != recHEADER {
		return nil, fmt.Errorf("gds: stream does not start with HEADER (got %s)", recName(first.typ))
	}
	l := &layout.Layout{}
	records := 1
	maxExtent := 0

	inBoundary := false
	var curLayer int16 = -1
	var curXY []point
	for {
		rec, err := readRecord(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		records++
		if records > lim.MaxRecords {
			return nil, fmt.Errorf("gds: stream exceeds %d records", lim.MaxRecords)
		}
		switch rec.typ {
		case recSTRNAME:
			if l.Name == "" {
				l.Name = trimASCII(rec.data)
			}
		case recBOUNDARY:
			inBoundary = true
			curLayer = -1
			curXY = nil
		case recLAYER:
			if len(rec.data) >= 2 {
				curLayer = int16(binary.BigEndian.Uint16(rec.data))
			}
		case recXY:
			if !inBoundary {
				continue
			}
			if len(rec.data)%8 != 0 {
				return nil, fmt.Errorf("gds: XY payload not a multiple of 8")
			}
			if n := len(curXY) + len(rec.data)/8; n > lim.MaxPolyVertices {
				return nil, fmt.Errorf("gds: boundary exceeds %d vertices", lim.MaxPolyVertices)
			}
			for i := 0; i+8 <= len(rec.data); i += 8 {
				curXY = append(curXY, point{
					x: int32(binary.BigEndian.Uint32(rec.data[i:])),
					y: int32(binary.BigEndian.Uint32(rec.data[i+4:])),
				})
			}
		case recENDEL:
			if inBoundary && (layer < 0 || curLayer == layer) && len(curXY) >= 4 {
				rects, err := decomposeRectilinear(curXY)
				if err != nil {
					return nil, err
				}
				if len(l.Rects)+len(rects) > lim.MaxRects {
					return nil, fmt.Errorf("gds: stream exceeds %d rectangles", lim.MaxRects)
				}
				for _, rc := range rects {
					l.Rects = append(l.Rects, rc)
					if e := rc.X + rc.W; e > maxExtent {
						maxExtent = e
					}
					if e := rc.Y + rc.H; e > maxExtent {
						maxExtent = e
					}
				}
			}
			inBoundary = false
			curXY = nil
		case recENDLIB:
			goto done
		}
	}
done:
	l.TileNM = 2048
	for l.TileNM < maxExtent {
		l.TileNM *= 2
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

func trimASCII(b []byte) string {
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return string(b)
}

// decomposeRectilinear splits a closed rectilinear polygon into
// non-overlapping rectangles with a vertical band sweep over its x-events.
// The polygon must be axis-aligned (every edge horizontal or vertical);
// the closing vertex may repeat the first.
func decomposeRectilinear(poly []point) ([]layout.Rect, error) {
	if len(poly) > 1 && poly[0] == poly[len(poly)-1] {
		poly = poly[:len(poly)-1]
	}
	if len(poly) < 4 {
		return nil, fmt.Errorf("gds: boundary with %d vertices", len(poly))
	}
	n := len(poly)
	for i := 0; i < n; i++ {
		a, b := poly[i], poly[(i+1)%n]
		if a.x != b.x && a.y != b.y {
			return nil, fmt.Errorf("gds: non-rectilinear boundary edge (%d,%d)-(%d,%d)", a.x, a.y, b.x, b.y)
		}
	}
	// Collect vertical edges and x-events.
	type vedge struct{ x, y0, y1 int32 } // y0 < y1
	var edges []vedge
	xsSet := map[int32]bool{}
	for i := 0; i < n; i++ {
		a, b := poly[i], poly[(i+1)%n]
		if a.x == b.x && a.y != b.y {
			y0, y1 := a.y, b.y
			if y0 > y1 {
				y0, y1 = y1, y0
			}
			edges = append(edges, vedge{a.x, y0, y1})
			xsSet[a.x] = true
		}
	}
	xs := make([]int32, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })

	var out []layout.Rect
	// For each x-band, find interior y-intervals by parity of crossing
	// edges that span the band.
	for bi := 0; bi+1 < len(xs); bi++ {
		x0, x1 := xs[bi], xs[bi+1]
		if x0 == x1 {
			continue
		}
		// A point inside the band is interior to the polygon iff a ray cast
		// left crosses an odd number of vertical edges, so the interior
		// y-intervals of the band are the odd-parity regions of the
		// y-boundaries of all vertical edges at x ≤ x0 (even-odd rule;
		// coincident boundaries cancel pairwise).
		type span struct{ y0, y1 int32 }
		var spans []span
		depthChange := map[int32]int{}
		for _, e := range edges {
			if e.x <= x0 {
				depthChange[e.y0]++
				depthChange[e.y1]++
			}
		}
		var ys []int32
		for y := range depthChange {
			ys = append(ys, y)
		}
		sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
		parity := 0
		var openY int32
		for _, y := range ys {
			if depthChange[y]%2 == 1 {
				if parity == 0 {
					openY = y
					parity = 1
				} else {
					spans = append(spans, span{openY, y})
					parity = 0
				}
			}
		}
		for _, s := range spans {
			out = append(out, layout.Rect{
				X: int(x0), Y: int(s.y0),
				W: int(x1 - x0), H: int(s.y1 - s.y0),
			})
		}
	}
	// Merge horizontally adjacent bands with identical y-extent to keep
	// rectangle counts small.
	merged := mergeBands(out)
	return merged, nil
}

// mergeBands coalesces rects that share y-extent and abut in x.
func mergeBands(rects []layout.Rect) []layout.Rect {
	sort.Slice(rects, func(i, j int) bool {
		if rects[i].Y != rects[j].Y {
			return rects[i].Y < rects[j].Y
		}
		if rects[i].H != rects[j].H {
			return rects[i].H < rects[j].H
		}
		return rects[i].X < rects[j].X
	})
	var out []layout.Rect
	for _, r := range rects {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.Y == r.Y && last.H == r.H && last.X+last.W == r.X {
				last.W += r.W
				continue
			}
		}
		out = append(out, r)
	}
	return out
}
