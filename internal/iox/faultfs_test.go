package iox_test

// The storage seam under the test kits of internal/testkit/faultfs:
// AtomicWrite under every injected fault, and the contracts of the two
// kits every persistence layer's fault and crash tests stand on. This is
// the external test package, so it can import a kit that imports iox.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"cfaopc/internal/iox"
	"cfaopc/internal/testkit/faultfs"
)

func TestAtomicWriteFaultLeavesOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.dat")
	if err := iox.AtomicWrite(nil, path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, plan := range []faultfs.Plan{
		{WriteBudget: 1},
		{FailSyncAt: 1},
		{FailRenameAt: 1},
	} {
		ff := faultfs.NewFaultFS(nil, plan)
		err := iox.AtomicWrite(ff, path, []byte("newnewnew"), 0o644)
		if err == nil {
			t.Fatalf("plan %+v: want error", plan)
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if string(got) != "old" {
			t.Fatalf("plan %+v: destination corrupted to %q", plan, got)
		}
		if _, serr := os.Stat(path + ".tmp"); !os.IsNotExist(serr) {
			t.Fatalf("plan %+v: temp file left behind", plan)
		}
		if ff.Stats().Injected == 0 {
			t.Fatalf("plan %+v: fault not injected", plan)
		}
	}
}

func TestPlanForKind(t *testing.T) {
	for _, kind := range []string{"enospc", "eio-sync", "torn", "rename"} {
		if _, err := faultfs.PlanForKind(kind); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	if _, err := faultfs.PlanForKind("bogus"); err == nil {
		t.Fatal("want error for unknown kind")
	}
}

func TestFaultENOSPCShortWrite(t *testing.T) {
	dir := t.TempDir()
	ff := faultfs.NewFaultFS(nil, faultfs.Plan{WriteBudget: 10})
	f, err := ff.Create(filepath.Join(dir, "j"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("123456")); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if n != 4 {
		t.Fatalf("short write should land remaining budget 4, got %d", n)
	}
	f.Close()
	got, _ := os.ReadFile(filepath.Join(dir, "j"))
	if string(got) != "123456abcd" {
		t.Fatalf("on-disk %q", got)
	}
	// The budget stays exhausted: later writes land zero bytes.
	f2, _ := ff.Create(filepath.Join(dir, "k"))
	n, err = f2.Write([]byte("zz"))
	if n != 0 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("post-exhaustion write: n=%d err=%v", n, err)
	}
	f2.Close()
}

func TestFaultSyncStaysBroken(t *testing.T) {
	dir := t.TempDir()
	ff := faultfs.NewFaultFS(nil, faultfs.Plan{FailSyncAt: 2})
	f, err := ff.Create(filepath.Join(dir, "j"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("first sync should pass: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("second sync: want EIO, got %v", err)
	}
	// fsyncgate: retrying fsync on the same fd must NOT succeed.
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("retried sync must stay broken, got %v", err)
	}
	if err := ff.SyncDir(dir); !errors.Is(err, syscall.EIO) {
		t.Fatalf("dir sync after failure: %v", err)
	}
}

func TestFaultTornWrite(t *testing.T) {
	dir := t.TempDir()
	ff := faultfs.NewFaultFS(nil, faultfs.Plan{TornWriteAt: 2})
	f, _ := ff.Create(filepath.Join(dir, "j"))
	if _, err := f.Write([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("bbbbbb"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO, got %v", err)
	}
	if n != 3 {
		t.Fatalf("torn write should land half (3), got %d", n)
	}
	f.Close()
	got, _ := os.ReadFile(filepath.Join(dir, "j"))
	if string(got) != "aaaabbb" {
		t.Fatalf("on-disk %q", got)
	}
}

func TestFaultRename(t *testing.T) {
	dir := t.TempDir()
	ff := faultfs.NewFaultFS(nil, faultfs.Plan{FailRenameAt: 1})
	src := filepath.Join(dir, "src")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "dst")
	if err := ff.Rename(src, dst); !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO, got %v", err)
	}
	if _, err := os.Stat(src); err != nil {
		t.Fatalf("source must be untouched: %v", err)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("destination must not exist: %v", err)
	}
	if err := ff.Rename(src, dst); err != nil {
		t.Fatalf("second rename should pass: %v", err)
	}
}

func TestFaultPathSubstrFilter(t *testing.T) {
	dir := t.TempDir()
	ff := faultfs.NewFaultFS(nil, faultfs.Plan{WriteBudget: 1, PathSubstr: "cache"})
	// Non-matching path: unlimited writes.
	f, _ := ff.Create(filepath.Join(dir, "journal.log"))
	if _, err := f.Write(bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatalf("non-matching path must not fault: %v", err)
	}
	f.Close()
	// Matching path: budget applies.
	g, _ := ff.Create(filepath.Join(dir, "cache-entry"))
	if _, err := g.Write([]byte("yy")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("matching path: want ENOSPC, got %v", err)
	}
	g.Close()
	st := ff.Stats()
	if st.Writes != 1 || st.Injected != 1 {
		t.Fatalf("counters must only advance on matching paths: %+v", st)
	}
}

func TestFaultWriteFile(t *testing.T) {
	dir := t.TempDir()
	ff := faultfs.NewFaultFS(nil, faultfs.Plan{WriteBudget: 3})
	path := filepath.Join(dir, "f")
	err := ff.WriteFile(path, []byte("abcdef"), 0o644)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "abc" {
		t.Fatalf("short WriteFile should land budget prefix, got %q", got)
	}
}

func TestRecorderMaterializeEquivalence(t *testing.T) {
	live := t.TempDir()
	rec := faultfs.NewRecorder(nil, live)

	// Exercise every op kind the persistence layers use.
	if err := rec.MkdirAll(filepath.Join(live, "d"), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := rec.OpenFile(filepath.Join(live, "d", "j.log"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"rec-one|", "rec-two|", "rec-three|"} {
		if _, err := f.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Truncate(16); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := rec.WriteFile(filepath.Join(live, "meta.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := iox.AtomicWrite(rec, filepath.Join(live, "d", "atom"), []byte("atomic!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rec.Remove(filepath.Join(live, "meta.json")); err != nil {
		t.Fatal(err)
	}
	// Out-of-root traffic must not be recorded.
	other := t.TempDir()
	if err := rec.WriteFile(filepath.Join(other, "x"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	ops := rec.Ops()
	for _, op := range ops {
		if filepath.IsAbs(op.Path) {
			t.Fatalf("recorded absolute path %q", op.Path)
		}
	}

	// Full replay reproduces the live tree byte for byte.
	scratch := t.TempDir()
	if err := faultfs.Materialize(scratch, ops, len(ops)); err != nil {
		t.Fatal(err)
	}
	assertTreesEqual(t, live, scratch)

	// Every prefix materializes without error into a fresh dir.
	for n := 0; n <= len(ops); n++ {
		dir := t.TempDir()
		if err := faultfs.Materialize(dir, ops, n); err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
	}

	// Torn variant of a write op leaves a strict prefix of its payload.
	wb := faultfs.WriteBoundaries(ops)
	if len(wb) == 0 {
		t.Fatal("no write boundaries recorded")
	}
	var lastWrite int
	for _, n := range wb {
		if ops[n-1].Kind == faultfs.OpWrite {
			lastWrite = n
		}
	}
	if lastWrite == 0 {
		t.Fatal("no OpWrite boundary")
	}
	tornDir := t.TempDir()
	keep := len(ops[lastWrite-1].Data) / 2
	if err := faultfs.MaterializeTorn(tornDir, ops, lastWrite, keep); err != nil {
		t.Fatal(err)
	}
	full := t.TempDir()
	if err := faultfs.Materialize(full, ops, lastWrite); err != nil {
		t.Fatal(err)
	}
	tornBytes, _ := os.ReadFile(filepath.Join(tornDir, ops[lastWrite-1].Path))
	fullBytes, _ := os.ReadFile(filepath.Join(full, ops[lastWrite-1].Path))
	wantLen := len(fullBytes) - (len(ops[lastWrite-1].Data) - keep)
	if len(tornBytes) != wantLen || !bytes.Equal(tornBytes, fullBytes[:wantLen]) {
		t.Fatalf("torn file is not the expected prefix: torn=%d full=%d want=%d", len(tornBytes), len(fullBytes), wantLen)
	}
	if err := faultfs.MaterializeTorn(t.TempDir(), ops, 1, 0); ops[0].Kind != faultfs.OpWrite && err == nil {
		t.Fatal("MaterializeTorn must reject non-write ops")
	}
}

func TestRecorderAppendMode(t *testing.T) {
	live := t.TempDir()
	rec := faultfs.NewRecorder(nil, live)
	path := filepath.Join(live, "log")
	f, err := rec.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("aaa"))
	f.Close()
	// Reopen in append mode: position must resume at EOF.
	f, err = rec.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("bbb"))
	f.Close()

	scratch := t.TempDir()
	ops := rec.Ops()
	if err := faultfs.Materialize(scratch, ops, len(ops)); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(filepath.Join(scratch, "log"))
	if string(got) != "aaabbb" {
		t.Fatalf("append replay produced %q", got)
	}
}

func assertTreesEqual(t *testing.T, a, b string) {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.Walk(a, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(a, p)
		data, rerr := os.ReadFile(p)
		if rerr != nil {
			return rerr
		}
		files[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	err = filepath.Walk(b, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(b, p)
		want, ok := files[rel]
		if !ok {
			t.Errorf("extra file %s in replay", rel)
			return nil
		}
		got, rerr := os.ReadFile(p)
		if rerr != nil {
			return rerr
		}
		if !bytes.Equal(got, want) {
			t.Errorf("file %s differs: live %d bytes, replay %d bytes", rel, len(want), len(got))
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(files) {
		t.Errorf("replay has %d files, live has %d", seen, len(files))
	}
}
