package faultfs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"cfaopc/internal/iox"
)

// OpKind discriminates recorded filesystem mutations.
type OpKind int

const (
	OpMkdir OpKind = iota
	OpCreate
	OpWrite
	OpTruncate
	OpSync
	OpSyncDir
	OpRename
	OpRemove
)

func (k OpKind) String() string {
	switch k {
	case OpMkdir:
		return "mkdir"
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpTruncate:
		return "truncate"
	case OpSync:
		return "sync"
	case OpSyncDir:
		return "syncdir"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one recorded mutation. Paths are relative to the Recorder's
// root, so a prefix can be materialized anywhere.
type Op struct {
	Kind  OpKind
	Path  string
	Path2 string // rename destination
	Off   int64  // write offset
	Data  []byte // write payload (copied)
	Size  int64  // truncate size
}

// Recorder passes every operation through to the inner FS while
// journaling each mutation under root, in the global order it reached
// the filesystem. The op log is the input to Materialize: replaying
// ops[:n] into a scratch directory reconstructs the exact on-disk bytes
// a crash after the n-th mutation would have left behind, which is what
// lets a test re-run recovery at every write boundary of a real run.
//
// Operations outside root are passed through unrecorded (reads,
// unrelated temp files); Materialize therefore only reconstructs the
// persistence tree under root.
type Recorder struct {
	inner iox.FS
	root  string

	mu  sync.Mutex
	ops []Op
}

// NewRecorder records mutations under root (which must exist) on top of
// inner (nil = the real filesystem).
func NewRecorder(inner iox.FS, root string) *Recorder {
	return &Recorder{inner: iox.OrOS(inner), root: filepath.Clean(root)}
}

// Ops snapshots the op log.
func (r *Recorder) Ops() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Op(nil), r.ops...)
}

// rel maps path into the recorded namespace; ok is false for paths
// outside root.
func (r *Recorder) rel(path string) (string, bool) {
	rel, err := filepath.Rel(r.root, filepath.Clean(path))
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", false
	}
	return rel, true
}

func (r *Recorder) record(op Op) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

func (r *Recorder) OpenFile(path string, flag int, perm os.FileMode) (iox.File, error) {
	inner, err := r.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	rel, ok := r.rel(path)
	if !ok {
		return inner, nil
	}
	if flag&os.O_TRUNC != 0 {
		r.record(Op{Kind: OpCreate, Path: rel})
	} else if flag&os.O_CREATE != 0 {
		// O_CREATE without O_TRUNC only mutates when the file is new;
		// creating an empty file is idempotent either way.
		if st, serr := inner.Stat(); serr == nil && st.Size() == 0 {
			r.record(Op{Kind: OpCreate, Path: rel})
		}
	}
	f := &recordFile{File: inner, rec: r, rel: rel}
	if flag&os.O_APPEND != 0 {
		if st, serr := inner.Stat(); serr == nil {
			f.pos = st.Size()
		}
	}
	return f, nil
}

func (r *Recorder) Open(path string) (iox.File, error) { return r.inner.Open(path) }

func (r *Recorder) Create(path string) (iox.File, error) {
	return r.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (r *Recorder) Rename(oldpath, newpath string) error {
	if err := r.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	o, ok1 := r.rel(oldpath)
	n, ok2 := r.rel(newpath)
	if ok1 && ok2 {
		r.record(Op{Kind: OpRename, Path: o, Path2: n})
	}
	return nil
}

func (r *Recorder) Remove(path string) error {
	if err := r.inner.Remove(path); err != nil {
		return err
	}
	if rel, ok := r.rel(path); ok {
		r.record(Op{Kind: OpRemove, Path: rel})
	}
	return nil
}

func (r *Recorder) MkdirAll(path string, perm os.FileMode) error {
	if err := r.inner.MkdirAll(path, perm); err != nil {
		return err
	}
	if rel, ok := r.rel(path); ok {
		r.record(Op{Kind: OpMkdir, Path: rel})
	}
	return nil
}

func (r *Recorder) SyncDir(dir string) error {
	if err := r.inner.SyncDir(dir); err != nil {
		return err
	}
	if rel, ok := r.rel(dir); ok {
		r.record(Op{Kind: OpSyncDir, Path: rel})
	}
	return nil
}

// recordFile tracks the write position so each recorded write carries
// its file offset (journals seek once after replay-truncate, then
// append; sequential writers never seek).
type recordFile struct {
	iox.File
	rec *Recorder
	rel string
	pos int64
}

func (f *recordFile) Seek(offset int64, whence int) (int64, error) {
	n, err := f.File.Seek(offset, whence)
	if err == nil {
		f.pos = n
	}
	return n, err
}

func (f *recordFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.pos += int64(n)
	return n, err
}

func (f *recordFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if n > 0 {
		f.rec.record(Op{Kind: OpWrite, Path: f.rel, Off: f.pos, Data: append([]byte(nil), p[:n]...)})
		f.pos += int64(n)
	}
	return n, err
}

func (f *recordFile) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.rec.record(Op{Kind: OpTruncate, Path: f.rel, Size: size})
	return nil
}

func (f *recordFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.rec.record(Op{Kind: OpSync, Path: f.rel})
	return nil
}

// Materialize replays ops[:n] into dir, reconstructing the on-disk
// state a crash immediately after the n-th mutation would leave. Sync
// ops replay as no-ops: the model is "everything written so far is on
// disk", the most adversarial prefix a crash can expose given ordered
// writes.
func Materialize(dir string, ops []Op, n int) error {
	return materialize(dir, ops, n, -1)
}

// MaterializeTorn replays ops[:n] but cuts the n-th op — which must be
// a write — to its first keep bytes, reconstructing a crash in the
// middle of that write (the torn-tail case every journal reader must
// tolerate).
func MaterializeTorn(dir string, ops []Op, n int, keep int) error {
	if n < 1 || n > len(ops) || ops[n-1].Kind != OpWrite {
		return fmt.Errorf("faultfs: op %d is not a write", n)
	}
	return materialize(dir, ops, n, keep)
}

func materialize(dir string, ops []Op, n int, tornKeep int) error {
	if n < 0 || n > len(ops) {
		return fmt.Errorf("faultfs: prefix %d outside op log of %d", n, len(ops))
	}
	for i := 0; i < n; i++ {
		op := ops[i]
		path := filepath.Join(dir, op.Path)
		switch op.Kind {
		case OpMkdir:
			if err := os.MkdirAll(path, 0o755); err != nil {
				return err
			}
		case OpCreate:
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
			if err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		case OpWrite:
			data := op.Data
			if i == n-1 && tornKeep >= 0 {
				if tornKeep > len(data) {
					tornKeep = len(data)
				}
				data = data[:tornKeep]
			}
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
			if err != nil {
				return err
			}
			if _, err := f.WriteAt(data, op.Off); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		case OpTruncate:
			if err := os.Truncate(path, op.Size); err != nil {
				return err
			}
		case OpSync, OpSyncDir:
			// Already modeled: every prior write is considered durable.
		case OpRename:
			if err := os.Rename(path, filepath.Join(dir, op.Path2)); err != nil {
				return err
			}
		case OpRemove:
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return err
			}
		default:
			return fmt.Errorf("faultfs: unknown op kind %v", op.Kind)
		}
	}
	return nil
}

// WriteBoundaries returns the op-log indices n for which ops[n-1] is a
// mutation of file bytes (write, truncate, rename, remove) — the
// prefixes worth crash-testing. Pure metadata ops (mkdir, sync) change
// nothing Materialize hasn't already applied.
func WriteBoundaries(ops []Op) []int {
	var out []int
	for i, op := range ops {
		switch op.Kind {
		case OpWrite, OpTruncate, OpRename, OpRemove, OpCreate:
			out = append(out, i+1)
		}
	}
	return out
}
