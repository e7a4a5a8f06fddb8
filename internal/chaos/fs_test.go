package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestNewFSPassthrough(t *testing.T) {
	if got := NewFS(nil, OS); got != OS {
		t.Error("nil plan should return base unchanged")
	}
	if got := NewFS(onePlan(t, ClassReset), OS); got != OS {
		t.Error("net-only plan should return base unchanged")
	}
	if got := NewFS(onePlan(t, ClassTorn), nil); got == nil {
		t.Error("nil base should default to OS")
	}
}

func TestFSENOSPC(t *testing.T) {
	dir := t.TempDir()
	cfs := NewFS(onePlan(t, ClassENOSPC), OS)

	tmp, err := cfs.CreateTemp(dir, "blob.*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	n, err := tmp.Write([]byte("payload"))
	tmp.Close()
	if n != 0 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("temp Write = %d, %v; want 0, ENOSPC", n, err)
	}
	if got, err := os.ReadFile(tmp.Name()); err != nil || len(got) != 0 {
		t.Fatalf("ENOSPC write persisted %q, %v; want an empty file", got, err)
	}

	f, err := cfs.OpenFile(filepath.Join(dir, "blob"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err = f.Write([]byte("payload"))
	f.Close()
	if n != 0 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Write = %d, %v; want 0, ENOSPC", n, err)
	}
}

func TestFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	cfs := NewFS(onePlan(t, ClassTorn), OS)

	f, err := cfs.CreateTemp(dir, "t*")
	if err != nil {
		t.Fatal(err)
	}
	n, werr := f.Write([]byte("0123456789"))
	f.Close()
	if werr == nil || n != 5 {
		t.Fatalf("file torn write = %d, %v; want 5, error", n, werr)
	}
	// The torn file holds the prefix; the caller knows only because the
	// error said so.
	if got, err := os.ReadFile(f.Name()); err != nil || string(got) != "01234" {
		t.Fatalf("torn file holds %q, %v; want the 5-byte prefix", got, err)
	}
}

func TestFSFsyncFail(t *testing.T) {
	dir := t.TempDir()
	cfs := NewFS(onePlan(t, ClassFsyncFail), OS)

	f, err := cfs.OpenFile(filepath.Join(dir, "j"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("line\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync err = %v, want EIO", err)
	}
	f.Close()
	got, err := os.ReadFile(filepath.Join(dir, "j"))
	if err != nil || string(got) != "line\n" {
		t.Fatalf("data lost across failed fsync: %q, %v", got, err)
	}
}

func TestFSRenameRace(t *testing.T) {
	dir := t.TempDir()
	cfs := NewFS(onePlan(t, ClassRenameRace), OS)
	tmp := filepath.Join(dir, "x.tmp")
	dst := filepath.Join(dir, "x")
	if err := os.WriteFile(tmp, []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cfs.Rename(tmp, dst); !errors.Is(err, syscall.ENOENT) {
		t.Fatalf("Rename err = %v, want ENOENT", err)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatal("rename race should leave the temp for the caller to collect")
	}
	if _, err := os.Stat(dst); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("rename race should not publish the destination")
	}
}

// TestFSReadsNeverFaulted pins the read-path contract: a plan with
// every fs class at rate 1 still reads and lists cleanly, and the
// metadata operations (mkdir, chmod, truncate, remove) pass through.
func TestFSReadsNeverFaulted(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a"), []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, _ := ParseSpec("fs=1")
	p, err := NewPlan(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfs := NewFS(p, OS)
	if got, err := cfs.ReadFile(filepath.Join(dir, "a")); err != nil || string(got) != "v" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if ents, err := cfs.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := cfs.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cfs.Chmod(filepath.Join(dir, "a"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := cfs.Truncate(filepath.Join(dir, "a"), 0); err != nil {
		t.Fatal(err)
	}
	if err := cfs.Remove(filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
	if p.Injections() != 0 {
		t.Fatalf("read-path ops consumed %d injections", p.Injections())
	}
}
