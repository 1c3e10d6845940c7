package iox

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// testCap is the size cap the frame tests read and write under.
const testCap = 1 << 20

func writeFrame(t testing.TB, w io.Writer, payload []byte) {
	t.Helper()
	frame, err := AppendFrame(nil, payload, testCap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(frame); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xAB}, 1<<16),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		writeFrame(t, &buf, p)
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf, testCap)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf, testCap); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestAppendFrameExtends: a frame lands after what dst already holds (a
// sealed file's magic), and a nil dst costs one allocation.
func TestAppendFrameExtends(t *testing.T) {
	got, err := AppendFrame([]byte("MAGIC"), []byte("payload"), testCap)
	if err != nil || !bytes.HasPrefix(got, []byte("MAGIC")) {
		t.Fatalf("AppendFrame onto a prefix: %q, %v", got, err)
	}
	if back, err := ReadFrame(bytes.NewReader(got[5:]), testCap); err != nil || string(back) != "payload" {
		t.Fatalf("frame after the prefix: %q, %v", back, err)
	}
	payload := make([]byte, 1000)
	if n := testing.AllocsPerRun(100, func() { AppendFrame(nil, payload, testCap) }); n != 1 {
		t.Fatalf("AppendFrame(nil, …) allocates %v times, want 1", n)
	}
}

func TestFrameTorn(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(t, &buf, []byte("hello frame"))
	full := buf.Bytes()
	// Every proper prefix except the empty one is a torn frame; zero
	// bytes is a clean EOF (the boundary case a dead-before-writing
	// worker produces).
	for cut := 1; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]), testCap)
		if !errors.Is(err, ErrTornFrame) {
			t.Fatalf("cut at %d: err = %v, want ErrTornFrame", cut, err)
		}
	}
	if _, err := ReadFrame(bytes.NewReader(nil), testCap); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestFrameCRCFlip(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(t, &buf, []byte("guarded payload"))
	data := buf.Bytes()
	for bit := 0; bit < 8; bit++ {
		corrupt := append([]byte(nil), data...)
		corrupt[10] ^= 1 << bit // flip inside the payload
		_, err := ReadFrame(bytes.NewReader(corrupt), testCap)
		if !errors.Is(err, ErrFrameCRC) {
			t.Fatalf("bit %d: err = %v, want ErrFrameCRC", bit, err)
		}
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	// A hostile header declaring a huge payload must be rejected before
	// any allocation is attempted — with the typed limit error, not a
	// torn-frame misdiagnosis.
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], testCap+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), testCap); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize declared length: err = %v, want ErrFrameTooBig", err)
	}
	// The write side enforces the same bound with the same typed error:
	// a payload the peer is obliged to reject must fail locally instead
	// of being shipped, and nothing may reach the caller's buffer.
	got, err := AppendFrame([]byte("kept"), make([]byte, testCap+1), testCap)
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize payload: AppendFrame err = %v, want ErrFrameTooBig", err)
	}
	if string(got) != "kept" {
		t.Fatalf("rejected frame still grew the buffer to %d bytes", len(got))
	}
}

// allocated reports the bytes f allocates. MemStats is process-wide, so
// it runs f at one P, as testing.AllocsPerRun does: with two, another
// goroutine's bytes read as f's.
func allocated(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// classify maps a ReadFrame error to its one class.
func classify(t *testing.T, err error) string {
	t.Helper()
	classes := map[string]bool{
		"eof":  err == io.EOF,
		"torn": errors.Is(err, ErrTornFrame),
		"crc":  errors.Is(err, ErrFrameCRC),
		"big":  errors.Is(err, ErrFrameTooBig),
	}
	name := ""
	for c, hit := range classes {
		if hit && name != "" {
			t.Fatalf("error %v is both %s and %s", err, name, c)
		}
		if hit {
			name = c
		}
	}
	if name == "" {
		t.Fatalf("error %v is none of clean EOF / torn / CRC / too-big", err)
	}
	return name
}

// FuzzFrame feeds arbitrary streams to ReadFrame: it never panics,
// never holds a payload past the cap (TestReadSealedRejects measures the
// bytes), every failure is exactly one of clean EOF / torn / CRC /
// too-big, and any payload it accepts re-frames to the bytes it was read
// from.
func FuzzFrame(f *testing.F) {
	seed, _ := AppendFrame(nil, []byte("seed payload"), testCap)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4})
	f.Add(bytes.Repeat([]byte{0xFF}, 16))
	f.Add([]byte{0, 0, 0x10, 0, 0, 0, 0, 0, 1, 2}) // declares 4 KiB over the fuzz cap
	f.Fuzz(func(t *testing.T, data []byte) {
		const fuzzCap = 2048
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			payload, err := ReadFrame(r, fuzzCap)
			if err != nil {
				// The payload buffer is allocated after the cap check and
				// before any payload byte is read: a too-big frame that
				// consumed only its header allocated nothing.
				if classify(t, err) == "big" && len(data)-r.Len() != start+8 {
					t.Fatal("oversized frame was read past its header")
				}
				return
			}
			if len(payload) > fuzzCap {
				t.Fatalf("accepted a %d-byte payload under a %d-byte cap", len(payload), fuzzCap)
			}
			frame, err := AppendFrame(nil, payload, fuzzCap)
			if err != nil {
				t.Fatalf("accepted payload fails re-framing: %v", err)
			}
			if !bytes.Equal(frame, data[start:start+len(frame)]) {
				t.Fatal("re-framed payload differs from the bytes it was read from")
			}
		}
	})
}

func TestSealedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.sealed")
	magic := []byte("MAGIC1\n")
	if err := WriteSealed(nil, path, magic, []byte("sealed payload"), testCap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSealed(nil, path, magic, testCap)
	if err != nil || string(got) != "sealed payload" {
		t.Fatalf("ReadSealed = %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	if err := WriteSealed(nil, path, magic, make([]byte, 65), 64); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize sealed write: err = %v, want ErrFrameTooBig", err)
	}
	if _, err := ReadSealed(nil, filepath.Join(t.TempDir(), "missing"), magic, testCap); !IsNotExist(err) {
		t.Fatalf("missing file: err = %v, want not-exist", err)
	}
}

// TestReadSealedRejects: every way a sealed file can be wrong has its
// own typed error, and none of them — in particular not a file far
// larger than the cap, nor a header declaring a length over it — makes
// the reader allocate past the cap (the parent read the whole file
// before comparing lengths).
func TestReadSealedRejects(t *testing.T) {
	const limit = 4096
	magic := []byte("MAGIC1\n")
	good, err := AppendFrame(append([]byte(nil), magic...), []byte("payload"), limit)
	if err != nil {
		t.Fatal(err)
	}
	hugeLen := append(append([]byte(nil), magic...), 0x7f, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	for name, tc := range map[string]struct {
		data []byte
		pad  int64 // sparse bytes appended after data
		want error
	}{
		"bad magic":                 {data: []byte("NOTMAGIC"), want: ErrSealedFormat},
		"short magic":               {data: magic[:3], want: ErrSealedFormat},
		"no header":                 {data: magic, want: ErrTornFrame},
		"torn payload":              {data: good[:len(good)-3], want: ErrTornFrame},
		"bit flip":                  {data: flipped, want: ErrFrameCRC},
		"one trailing byte":         {data: append(append([]byte(nil), good...), 0), want: ErrSealedFormat},
		"oversized file":            {data: good, pad: 64 << 20, want: ErrSealedFormat},
		"oversized declared length": {data: hugeLen, pad: 64 << 20, want: ErrFrameTooBig},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.pad > 0 {
				if err := os.Truncate(path, int64(len(tc.data))+tc.pad); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			n := allocated(func() { _, err = ReadSealed(nil, path, magic, limit) })
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if n > limit+4096 {
				t.Fatalf("ReadSealed allocated %d bytes under a %d-byte cap", n, limit)
			}
		})
	}
}

// openCounter is a seam that sees every Open.
type openCounter struct {
	OSFS
	opened []string
}

func (c *openCounter) Open(path string) (File, error) {
	c.opened = append(c.opened, path)
	return c.OSFS.Open(path)
}

// TestReadSealedThroughTheSeam: the reader opens through the FS it is
// given — the one the writer wrote through — so a fault injector or
// recorder sees the namespace it mutated.
func TestReadSealedThroughTheSeam(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	magic := []byte("MAGIC1\n")
	seam := &openCounter{}
	if err := WriteSealed(seam, path, magic, []byte("payload"), testCap); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadSealed(seam, path, magic, testCap); err != nil || string(got) != "payload" {
		t.Fatalf("ReadSealed through the seam = %q, %v", got, err)
	}
	if len(seam.opened) != 1 || seam.opened[0] != path {
		t.Fatalf("seam saw opens %q, want exactly %q", seam.opened, path)
	}
}

func TestGobRoundTrip(t *testing.T) {
	type rec struct {
		A int
		B []float64
	}
	p, err := EncodeGob(rec{A: 7, B: []float64{1.5, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	var back rec
	if err := DecodeGob(p, &back); err != nil || back.A != 7 || len(back.B) != 2 {
		t.Fatalf("DecodeGob = %+v, %v", back, err)
	}
	if err := DecodeGob([]byte("not gob"), &back); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := EncodeGob(func() {}); err == nil {
		t.Fatal("a func encoded")
	}
}

// moody fails to encode when told to, from the middle of a record.
type moody struct{ Fail bool }

func (m moody) GobEncode() ([]byte, error) {
	if m.Fail {
		return nil, errors.New("moody: not now")
	}
	return []byte{1}, nil
}

func (m *moody) GobDecode([]byte) error { return nil }

type warmRec struct {
	N     int
	Inner *struct {
		S string
		F []float64
	}
	Mood moody
	Tail []int32
}

// Every payload of a GobEncoder is the payload a fresh encoder writes for
// the same value — first call, warmed calls, zero values, nil and set
// pointers — and decodes on its own. After an Encode fails the next
// payload is whole again: same bytes as fresh, decodable alone.
func TestGobEncoderMatchesFreshEncoder(t *testing.T) {
	var g GobEncoder[warmRec]
	check := func(v warmRec) {
		t.Helper()
		got, err := g.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeGob(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: warmed encoder wrote %d bytes, fresh %d, or they differ", v, len(got), len(want))
		}
		var back warmRec
		if err := DecodeGob(got, &back); err != nil || back.N != v.N || len(back.Tail) != len(v.Tail) || (back.Inner == nil) != (v.Inner == nil) {
			t.Fatalf("%+v decoded alone as %+v, %v", v, back, err)
		}
	}
	vals := []warmRec{{}, {N: 1}, {Tail: []int32{1, 2, 3}}, {N: -5, Tail: make([]int32, 300)}, {}}
	for i := range vals[:3] {
		vals[i+1].Inner = &struct {
			S string
			F []float64
		}{S: "x", F: make([]float64, i)}
	}
	for round := 0; round < 3; round++ {
		for _, v := range vals {
			check(v)
		}
		if _, err := g.Encode(warmRec{N: 9, Mood: moody{Fail: true}}); err == nil {
			t.Fatal("a failing field encoded")
		}
		if g.enc != nil {
			t.Fatal("the encoder survived its error")
		}
	}
	// A failure on the very first call leaves nothing behind either.
	var h GobEncoder[warmRec]
	if _, err := h.Encode(warmRec{Mood: moody{Fail: true}}); err == nil || h.enc != nil {
		t.Fatalf("first-call failure: err = %v, encoder kept = %v", err, h.enc != nil)
	}
	g = GobEncoder[warmRec]{}
	check(vals[1])
}

// Payloads from many goroutines through one GobEncoder are each the
// fresh encoder's bytes. Run under -race.
func TestGobEncoderConcurrent(t *testing.T) {
	var g GobEncoder[warmRec]
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 50; i++ {
				v := warmRec{N: w*1000 + i, Tail: make([]int32, i)}
				got, err := g.Encode(v)
				want, _ := EncodeGob(v)
				if err != nil || !bytes.Equal(got, want) {
					errs <- errors.New("warmed payload differs from fresh")
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
