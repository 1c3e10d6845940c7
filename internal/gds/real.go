// Package gds reads and writes a practical subset of the GDSII stream
// format — the interchange format real mask-data-preparation flows use for
// layouts like the ICCAD-2013 tiles. Supported: HEADER/BGNLIB/LIBNAME/
// UNITS/BGNSTR/STRNAME/ENDSTR/ENDLIB structure records and BOUNDARY
// elements with LAYER/DATATYPE/XY, which covers rectilinear layout tiles.
// Boundaries are decomposed into the rectangle lists the rest of this
// library consumes.
package gds

import (
	"fmt"
	"math"
)

// encodeReal8 converts a float64 to the GDSII 8-byte real: a sign bit,
// a 7-bit excess-64 base-16 exponent, and a 56-bit mantissa in [1/16, 1).
func encodeReal8(v float64) [8]byte {
	var out [8]byte
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return out
	}
	sign := byte(0)
	if v < 0 {
		sign = 0x80
		v = -v
	}
	exp := 0
	// Normalize mantissa into [1/16, 1) with v = mantissa · 16^exp.
	for v >= 1 {
		v /= 16
		exp++
	}
	for v < 1.0/16 {
		v *= 16
		exp--
	}
	e := exp + 64
	if e < 0 {
		return out // underflow → zero
	}
	if e > 127 {
		e = 127 // saturate; callers only encode unit scales
	}
	out[0] = sign | byte(e)
	mant := v
	for i := 1; i < 8; i++ {
		mant *= 256
		b := math.Floor(mant)
		out[i] = byte(b)
		mant -= b
	}
	return out
}

// record type bytes of the GDSII subset.
const (
	recHEADER   = 0x00
	recBGNLIB   = 0x01
	recLIBNAME  = 0x02
	recUNITS    = 0x03
	recENDLIB   = 0x04
	recBGNSTR   = 0x05
	recSTRNAME  = 0x06
	recENDSTR   = 0x07
	recBOUNDARY = 0x08
	recENDEL    = 0x11
	recLAYER    = 0x0d
	recDATATYPE = 0x0e
	recXY       = 0x10
)

// data type bytes.
const (
	dtNone  = 0x00
	dtInt16 = 0x02
	dtInt32 = 0x03
	dtReal8 = 0x05
	dtASCII = 0x06
)

func recName(t byte) string {
	switch t {
	case recHEADER:
		return "HEADER"
	case recBGNLIB:
		return "BGNLIB"
	case recLIBNAME:
		return "LIBNAME"
	case recUNITS:
		return "UNITS"
	case recENDLIB:
		return "ENDLIB"
	case recBGNSTR:
		return "BGNSTR"
	case recSTRNAME:
		return "STRNAME"
	case recENDSTR:
		return "ENDSTR"
	case recBOUNDARY:
		return "BOUNDARY"
	case recENDEL:
		return "ENDEL"
	case recLAYER:
		return "LAYER"
	case recDATATYPE:
		return "DATATYPE"
	case recXY:
		return "XY"
	}
	return fmt.Sprintf("0x%02x", t)
}
