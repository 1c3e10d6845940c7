package flow

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"cfaopc/internal/checkpoint"
	"cfaopc/internal/iox"
	"cfaopc/internal/procpool"
	"cfaopc/internal/quarantine"
)

// TestParentBytesReframe: the frame moved packages, its bytes did not.
// Every file the parent commit wrote is taken apart by today's readers
// and put back together by today's writers — the journal through
// checkpoint.OpenFS + Append, the bundle through iox.WriteSealed, the
// session frames through iox.AppendFrame — and must come out the same
// bytes. (Frame level only: gob assigns type ids in first-use order, so
// re-encoding a payload is not byte-stable across processes.)
func TestParentBytesReframe(t *testing.T) {
	want := func(name string) []byte {
		t.Helper()
		raw, err := os.ReadFile(parentFile(name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	same := func(name string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want(name)) {
			t.Errorf("%s: re-framed bytes differ from the parent's file", name)
		}
	}

	t.Run("journal.ckpt", func(t *testing.T) {
		payloads, err := checkpoint.ReadFS(nil, parentFile("journal.ckpt"), []byte(parentJournalHeader))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "journal.ckpt")
		j, _, err := checkpoint.OpenFS(nil, path, []byte(parentJournalHeader))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			if err := j.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		same("journal.ckpt", got)
	})

	t.Run("tile0003.qrb", func(t *testing.T) {
		magic := []byte("CFQRB1\n")
		payload, err := iox.ReadSealed(nil, parentFile("tile0003.qrb"), magic, quarantine.MaxBundleBytes)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "tile0003.qrb")
		if err := iox.WriteSealed(nil, path, magic, payload, quarantine.MaxBundleBytes); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		same("tile0003.qrb", got)
	})

	for _, name := range []string{"task.frame", "reply.frame"} {
		t.Run(name, func(t *testing.T) {
			r := bytes.NewReader(want(name))
			payload, err := iox.ReadFrame(r, procpool.MaxFrameBytes)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := iox.ReadFrame(r, procpool.MaxFrameBytes); err != io.EOF {
				t.Fatalf("after the one frame: err = %v, want io.EOF", err)
			}
			got, err := iox.AppendFrame(nil, payload, procpool.MaxFrameBytes)
			if err != nil {
				t.Fatal(err)
			}
			same(name, got)
		})
	}
}
