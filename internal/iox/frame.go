package iox

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// ErrTornFrame marks a frame cut short: the stream ended inside the
// header or the declared payload — a crash mid-write on disk, process
// death or a dropped link on a session.
var ErrTornFrame = errors.New("iox: torn frame")

// ErrFrameCRC marks a fully-present frame whose payload fails its
// checksum: bit rot, or interleaved writes from a buggy sender.
var ErrFrameCRC = errors.New("iox: frame CRC mismatch")

// ErrFrameTooBig marks a frame rejected by the caller's size cap, on
// either side: a writer about to emit a payload every reader is obliged
// to reject fails locally instead, and a reader seeing an oversized
// declared length refuses it before any allocation.
var ErrFrameTooBig = errors.New("iox: frame exceeds size limit")

// ErrSealedFormat marks a sealed file that is not one: wrong magic, or
// bytes after the frame.
var ErrSealedFormat = errors.New("iox: not a sealed file")

// AppendFrame appends payload's frame,
//
//	uint32 BE payload length | uint32 BE CRC32(IEEE, payload) | payload
//
// to dst (nil allocates exactly one buffer), so a caller issues it in a
// single Write and frames from one writer never interleave mid-frame.
// max is the caller's size cap: a corrupt or hostile length prefix can
// never demand more than that caller is prepared to hold.
func AppendFrame(dst, payload []byte, max int) ([]byte, error) {
	if len(payload) > max {
		return dst, fmt.Errorf("%w: payload %d bytes, limit %d", ErrFrameTooBig, len(payload), max)
	}
	n := len(dst)
	if need := n + 8 + len(payload); cap(dst) < need {
		dst = append(make([]byte, 0, need), dst...)
	}
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(dst[n:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[n+4:], crc32.ChecksumIEEE(payload))
	return append(dst, payload...), nil
}

// ReadFrame reads one frame and returns its verified payload. io.EOF at
// a frame boundary is a clean end of stream; every other failure is
// exactly one of ErrTornFrame, ErrFrameCRC or ErrFrameTooBig.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short header: %w", ErrTornFrame, err)
	}
	ln := binary.BigEndian.Uint32(hdr[0:4])
	want := binary.BigEndian.Uint32(hdr[4:8])
	if uint64(ln) > uint64(max) {
		return nil, fmt.Errorf("%w: declared length %d bytes, limit %d", ErrFrameTooBig, ln, max)
	}
	payload := make([]byte, ln)
	if n, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: %d of %d payload bytes: %w", ErrTornFrame, n, ln, err)
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, ErrFrameCRC
	}
	return payload, nil
}

// WriteSealed writes magic + one frame to path through AtomicWrite: the
// whole-file discipline of window-cache entries and quarantine bundles.
func WriteSealed(fsys FS, path string, magic, payload []byte, max int) error {
	data, err := AppendFrame(append(make([]byte, 0, len(magic)+8+len(payload)), magic...), payload, max)
	if err != nil {
		return err
	}
	return AtomicWrite(fsys, path, data, 0o644)
}

// ReadSealed reads and verifies a WriteSealed file through the seam. It
// streams — magic, header, then a payload buffer of at most max bytes —
// so no input, however large or whatever length it declares, makes it
// hold more than len(magic)+8+max.
func ReadSealed(fsys FS, path string, magic []byte, max int) ([]byte, error) {
	f, err := OrOS(fsys).Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(f, got); err != nil || !bytes.Equal(got, magic) {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrSealedFormat, path)
	}
	payload, err := ReadFrame(f, max)
	if err == io.EOF {
		err = fmt.Errorf("%w: no header", ErrTornFrame)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var one [1]byte
	if n, _ := f.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("%w: %s: bytes after the frame", ErrSealedFormat, path)
	}
	return payload, nil
}

// EncodeGob gob-encodes v as one self-describing payload (a fresh
// encoder per value, so every payload decodes on its own).
func EncodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobEncoder is EncodeGob for many values of one type T: each payload is
// the bytes EncodeGob returns for that value, without describing T's
// types again per value. A gob stream's first Encode emits the type
// descriptors and then the value message, every later Encode the value
// message alone, and the descriptors depend on T only — so the first
// payload less its value message is a prefix that makes any later value
// message the self-describing payload a fresh encoder would have written.
// That needs T free of interface-typed fields: a concrete type first met
// inside one is described where it is met, once per stream. The zero
// value is ready; it is safe for concurrent use.
type GobEncoder[T any] struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	enc    *gob.Encoder // nil until warmed, and again after an error
	prefix []byte       // T's descriptors, as enc sent them once
}

// Encode returns v's payload. An encoder that fails is discarded, so no
// later payload can depend on what a failed Encode left in the stream.
func (g *GobEncoder[T]) Encode(v T) ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.buf.Reset()
	if g.enc == nil {
		// Warm up: the stream's first message is the whole payload, its
		// second is v's value message alone; what precedes it in the
		// first is the prefix.
		enc := gob.NewEncoder(&g.buf)
		if err := enc.Encode(v); err != nil {
			return nil, err
		}
		full := bytes.Clone(g.buf.Bytes())
		g.buf.Reset()
		if err := enc.Encode(v); err == nil && bytes.HasSuffix(full, g.buf.Bytes()) {
			g.enc, g.prefix = enc, bytes.Clone(full[:len(full)-g.buf.Len()])
		}
		return full, nil
	}
	if err := g.enc.Encode(v); err != nil {
		g.enc = nil
		return nil, err
	}
	return append(append(make([]byte, 0, len(g.prefix)+g.buf.Len()), g.prefix...), g.buf.Bytes()...), nil
}

// DecodeGob decodes an EncodeGob payload into v.
func DecodeGob(p []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(p)).Decode(v)
}
