package durable

import (
	"path/filepath"

	"orderlight/internal/chaos"
)

// WriteFile publishes data at path atomically through fsys (nil means
// the real filesystem): it writes a fresh temp file in path's
// directory, syncs and closes it, makes it 0644 and renames it over
// path. A crash leaves the previous file or none, never a torn one, and
// on any error the temp file is removed. Temp names are unique, so
// concurrent writers of one path never clobber each other's temp; they
// all match *.tmp for stray-file sweeps.
func WriteFile(fsys chaos.FS, path string, data []byte) error {
	if fsys == nil {
		fsys = chaos.OS
	}
	f, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
	}
	return err
}
