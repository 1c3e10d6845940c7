package iox

import (
	"os"
	"path/filepath"
	"testing"
)

func TestOSFSRoundtrip(t *testing.T) {
	dir := t.TempDir()
	fsys := OSFS{}
	path := filepath.Join(dir, "sub", "a.bin")
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	if err := fsys.Rename(path, filepath.Join(dir, "b.bin")); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Open(path); !IsNotExist(err) {
		t.Fatalf("want not-exist after rename, got %v", err)
	}
	if err := fsys.Remove(filepath.Join(dir, "b.bin")); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.dat")
	if err := AtomicWrite(nil, path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWrite(OSFS{}, path, []byte("version-two"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "version-two" {
		t.Fatalf("got %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}
