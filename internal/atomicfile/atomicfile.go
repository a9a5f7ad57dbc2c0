// Package atomicfile writes files atomically: content is rendered into
// a temporary file in the destination directory and renamed over the
// target, so concurrent readers (and a mid-write kill) never observe a
// half-written file.
//
// Unlike the naive temp+rename idiom it replaces, every failure path —
// including a failed rename — removes the temporary file, so an
// unwritable or vanished target never leaks orphaned temp files into
// the destination directory, and the first error encountered is always
// returned to the caller.
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Write renders content via the write callback into a temporary file
// beside path and atomically renames it over path. On any failure the
// temporary file is removed and the first error is returned; the
// previous contents of path (if any) are left untouched.
func Write(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicfile: creating temp in %s: %w", dir, err)
	}
	// Any exit before the rename succeeded must remove the temp file;
	// a successful rename makes both cleanups no-ops.
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("atomicfile: rendering %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("atomicfile: closing temp for %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("atomicfile: renaming over %s: %w", path, err)
	}
	return nil
}
