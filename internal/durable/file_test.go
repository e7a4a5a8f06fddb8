package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"orderlight/internal/chaos"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	for _, data := range []string{"first", "second, longer"} {
		if err := WriteFile(nil, path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Fatalf("file holds %q, %v; want %q", got, err, data)
		}
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, %v; want 0644", info.Mode(), err)
	}
	assertNoTemps(t, dir)
}

// TestWriteFileUnderChaos injects each write-path fault class. Every
// one must fail the write, leave no temp file behind and leave the
// previously published content intact: never a partial target.
func TestWriteFileUnderChaos(t *testing.T) {
	for _, tc := range []struct {
		class chaos.Class
		errno error
	}{
		{chaos.ClassENOSPC, syscall.ENOSPC},
		{chaos.ClassTorn, io.ErrShortWrite},
		{chaos.ClassFsyncFail, syscall.EIO},
		{chaos.ClassRenameRace, syscall.ENOENT},
	} {
		t.Run(tc.class.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "blob")
			if err := WriteFile(nil, path, []byte("previous")); err != nil {
				t.Fatal(err)
			}
			p, err := chaos.NewPlan(chaos.Spec{Seed: 1, Rates: map[chaos.Class]float64{tc.class: 1}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			err = WriteFile(chaos.NewFS(p, chaos.OS), path, []byte("replacement"))
			if !errors.Is(err, tc.errno) {
				t.Fatalf("WriteFile = %v, want a %v failure", err, tc.errno)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != "previous" {
				t.Fatalf("target holds %q, %v after a failed write; want the previous content", got, err)
			}
			assertNoTemps(t, dir)
		})
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	if err := WriteFile(chaos.OS, filepath.Join(t.TempDir(), "absent", "blob"), []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("stray temp files: %v", tmps)
	}
}
