// Package iox is the storage seam under every persistence layer:
// checkpoint journals, wcache disk entries, quarantine bundles, the
// daemon's per-job event journals, and the streamed mask / shot
// artifact writers all perform their filesystem mutations through
// the FS interface instead of calling the os package directly.
//
// The point is fault realism. Production mask-writer OPC runs for hours
// against disks that fill up, controllers that return EIO, and machines
// that lose power mid-rename — and every durability claim the system
// makes ("byte-identical resume", "any seq a client saw replays
// exactly") is only as good as its behavior at those boundaries. OSFS,
// the real filesystem, is the one implementation the product ships (the
// zero-cost default everywhere). The tests put internal/testkit/faultfs
// behind the same seam: a fault injector for deterministic ENOSPC, EIO,
// torn writes and failed renames, and a recorder that logs every
// mutation so the disk a crash at any write boundary leaves can be
// rebuilt.
//
// AtomicWrite is the shared temp+fsync+rename+parent-fsync helper: a
// rename is only crash-durable once the parent directory's entry is
// synced, a step the wcache and quarantine writers used to skip.
//
// frame.go holds the byte formats those layers share, once each: the
// length | CRC32 | payload frame (journal records, cache entries,
// bundles, tile-worker messages), the sealed file built from it, and
// the gob codec under all of them.
package iox

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// File is the subset of *os.File the persistence layers use. Implement
// it to interpose on writes, syncs, and truncation.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Name() string
}

// FS is the mutation surface of a filesystem. Read helpers are included
// because fault injectors and recorders must see the same namespace
// they mutate (a renamed-away file must stop resolving).
type FS interface {
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	Open(path string) (File, error)
	Create(path string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs the directory itself, making previously renamed or
	// created entries crash-durable. Filesystems that cannot sync
	// directories report success; the data was already durable or never
	// can be, and neither is the caller's fault.
	SyncDir(dir string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}
func (OSFS) Open(path string) (File, error)               { return os.Open(path) }
func (OSFS) Create(path string) (File, error)             { return os.Create(path) }
func (OSFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(path string) error                     { return os.Remove(path) }
func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if err != nil && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.EISDIR)) {
		return nil
	}
	return err
}

// OrOS returns fsys, or the real filesystem when fsys is nil — the
// idiom every Config.FS consumer uses to make nil mean "no seam".
func OrOS(fsys FS) FS {
	if fsys == nil {
		return OSFS{}
	}
	return fsys
}

// AtomicWrite replaces path with data so that a crash at any instant
// leaves either the old content or the new — never a torn mix — and the
// replacement survives power loss: temp file, write, fsync, rename,
// then fsync of the parent directory (without which the rename itself
// may not be durable). On error the temp file is removed best-effort.
func AtomicWrite(fsys FS, path string, data []byte, perm os.FileMode) error {
	fsys = OrOS(fsys)
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// IsNotExist reports whether err means the file does not exist,
// unwrapping injected and recorded errors like the os version unwraps
// PathErrors.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
