package report

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with the bytes write produces, so that a
// crash at any point leaves either the previous file or the complete new
// one, never a torn copy. The bytes go to a temp file in the same
// directory, which is made 0644, fsynced and renamed over path; the
// directory is then fsynced so the rename itself survives power loss.
// Readers racing a rewrite (an HTTP artifact endpoint re-rendering a
// report) only ever see a complete file.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
