// Package faultfs holds the two test implementations of the iox.FS
// storage seam; only _test.go files import it.
//
//   - FaultFS: deterministic injected faults — ENOSPC after a byte
//     budget, EIO on the K-th fsync, torn short writes, failed renames —
//     so each persistence layer's degradation policy is testable without
//     root or a loopback filesystem.
//   - Recorder: an op log of every mutation, from which Materialize
//     reconstructs the on-disk state at any write boundary — the "crash
//     at every prefix" simulator behind the TestCrashConsistency tests.
package faultfs

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"

	"cfaopc/internal/iox"
)

// Plan scripts deterministic storage faults. Counters are global across
// the FaultFS (not per file): "the 3rd write anywhere fails" is
// reproducible under serial tests, which is where these plans run.
// Zero values disable each fault.
type Plan struct {
	// WriteBudget, when > 0, is the total number of payload bytes
	// writable through the FS before ENOSPC. The write that crosses the
	// budget is short — the remaining budget lands on disk, the rest
	// does not — matching how a full filesystem tears an append.
	WriteBudget int64
	// FailSyncAt, when > 0, fails the N-th Sync (file or directory,
	// 1-based) with EIO. Later Syncs on the same handle also fail:
	// after a failed fsync the kernel may have dropped the dirty pages,
	// so "retry fsync and trust it" is exactly the fsyncgate bug this
	// injector exists to catch.
	FailSyncAt int
	// TornWriteAt, when > 0, cuts the N-th write short: half the
	// payload is written, then EIO. The torn tail is on disk.
	TornWriteAt int
	// FailRenameAt, when > 0, fails the N-th Rename with EIO, leaving
	// both source and destination untouched.
	FailRenameAt int
	// PathSubstr, when non-empty, restricts every fault to operations
	// whose path contains the substring; other paths pass through
	// untouched (and do not advance the counters).
	PathSubstr string
}

// PlanForKind maps the storage-fault matrix's IOFAULT kinds to
// canonical plans. Tests tune the returned fields when the defaults do
// not land on an interesting boundary for their workload.
func PlanForKind(kind string) (Plan, error) {
	switch kind {
	case "enospc":
		return Plan{WriteBudget: 4096}, nil
	case "eio-sync":
		return Plan{FailSyncAt: 2}, nil
	case "torn":
		return Plan{TornWriteAt: 3}, nil
	case "rename":
		return Plan{FailRenameAt: 1}, nil
	default:
		return Plan{}, fmt.Errorf("faultfs: unknown fault kind %q (want enospc|eio-sync|torn|rename)", kind)
	}
}

// FaultStats counts what a FaultFS saw and did.
type FaultStats struct {
	Writes   int   // write calls on faultable paths
	Bytes    int64 // payload bytes accepted
	Syncs    int   // sync calls (file + dir) on faultable paths
	Renames  int   // renames on faultable paths
	Injected int   // faults actually fired
}

// FaultFS wraps an FS with the Plan's deterministic faults. Safe for
// concurrent use; the counters are globally ordered under one lock.
type FaultFS struct {
	inner iox.FS
	plan  Plan

	mu    sync.Mutex
	stats FaultStats
}

// NewFaultFS wraps inner (nil = the real filesystem) with plan.
func NewFaultFS(inner iox.FS, plan Plan) *FaultFS {
	return &FaultFS{inner: iox.OrOS(inner), plan: plan}
}

// Stats snapshots the fault counters.
func (f *FaultFS) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *FaultFS) faultable(path string) bool {
	return f.plan.PathSubstr == "" || strings.Contains(path, f.plan.PathSubstr)
}

func errENOSPC(path string) error {
	return &os.PathError{Op: "write", Path: path, Err: syscall.ENOSPC}
}
func errEIO(op, path string) error {
	return &os.PathError{Op: op, Path: path, Err: syscall.EIO}
}

// admitWrite decides how much of an n-byte write at path proceeds and
// which error (if any) follows it.
func (f *FaultFS) admitWrite(path string, n int) (allow int, err error) {
	if !f.faultable(path) {
		return n, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Writes++
	if f.plan.TornWriteAt > 0 && f.stats.Writes == f.plan.TornWriteAt {
		f.stats.Injected++
		allow = n / 2
		f.stats.Bytes += int64(allow)
		return allow, errEIO("write", path)
	}
	if f.plan.WriteBudget > 0 {
		remaining := f.plan.WriteBudget - f.stats.Bytes
		if remaining < int64(n) {
			if remaining < 0 {
				remaining = 0
			}
			f.stats.Injected++
			f.stats.Bytes += remaining
			return int(remaining), errENOSPC(path)
		}
	}
	f.stats.Bytes += int64(n)
	return n, nil
}

// admitSync decides whether a sync on path succeeds.
func (f *FaultFS) admitSync(path string) error {
	if !f.faultable(path) {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Syncs++
	// From the N-th sync on, every sync fails: a device that errored an
	// fsync does not quietly heal, and the post-failure behavior (does
	// the caller trust a later fsync on the same fd?) is the fsyncgate
	// bug class under test.
	if f.plan.FailSyncAt > 0 && f.stats.Syncs >= f.plan.FailSyncAt {
		f.stats.Injected++
		return errEIO("fsync", path)
	}
	return nil
}

func (f *FaultFS) admitRename(path string) error {
	if !f.faultable(path) {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Renames++
	if f.plan.FailRenameAt > 0 && f.stats.Renames == f.plan.FailRenameAt {
		f.stats.Injected++
		return errEIO("rename", path)
	}
	return nil
}

func (f *FaultFS) OpenFile(path string, flag int, perm os.FileMode) (iox.File, error) {
	inner, err := f.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f, path: path}, nil
}

func (f *FaultFS) Open(path string) (iox.File, error) { return f.inner.Open(path) }

func (f *FaultFS) Create(path string) (iox.File, error) {
	inner, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f, path: path}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.admitRename(newpath); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(path string) error                     { return f.inner.Remove(path) }
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error { return f.inner.MkdirAll(path, perm) }

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.admitSync(dir); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile interposes the plan on one handle's writes and syncs.
type faultFile struct {
	iox.File
	fs   *FaultFS
	path string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	allow, ferr := ff.fs.admitWrite(ff.path, len(p))
	n, werr := ff.File.Write(p[:allow])
	if werr != nil {
		return n, werr
	}
	if ferr != nil {
		return n, ferr
	}
	return len(p), nil
}

func (ff *faultFile) Sync() error {
	if err := ff.fs.admitSync(ff.path); err != nil {
		return err
	}
	return ff.File.Sync()
}
