package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeString is Write of a fixed payload.
func writeString(path, data string) error {
	return Write(path, func(w io.Writer) error {
		_, err := io.WriteString(w, data)
		return err
	})
}

// tempOrphans lists leftover temp files in dir.
func tempOrphans(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			orphans = append(orphans, e.Name())
		}
	}
	return orphans
}

func TestWriteReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := writeString(path, "first"); err != nil {
		t.Fatal(err)
	}
	if err := writeString(path, "second"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("content = %q", got)
	}
	if o := tempOrphans(t, dir); len(o) != 0 {
		t.Fatalf("temp files left behind: %v", o)
	}
}

// TestWriteRenameFailureCleansUp is the regression for the orphaned
// temp file: when the final rename fails (here the target is an
// existing directory, which rename cannot replace), the error must be
// surfaced, the temp file removed, and the target left untouched.
func TestWriteRenameFailureCleansUp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "unwritable")
	if err := os.MkdirAll(filepath.Join(target, "occupant"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := writeString(target, "payload")
	if err == nil {
		t.Fatal("rename over a non-empty directory should fail")
	}
	if !strings.Contains(err.Error(), "renaming over") {
		t.Fatalf("error should name the rename step: %v", err)
	}
	if o := tempOrphans(t, dir); len(o) != 0 {
		t.Fatalf("rename failure leaked temp files: %v", o)
	}
	if fi, statErr := os.Stat(target); statErr != nil || !fi.IsDir() {
		t.Fatalf("target directory disturbed: %v %v", fi, statErr)
	}
}

func TestWriteUnwritableDirectory(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "out.txt")
	if err := writeString(missing, "x"); err == nil {
		t.Fatal("write into a missing directory should fail")
	}
}

func TestWriteCallbackErrorCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := writeString(path, "keep"); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("render failed")
	err := Write(path, func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped render error", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "keep" {
		t.Fatalf("failed write disturbed target: %q", got)
	}
	if o := tempOrphans(t, dir); len(o) != 0 {
		t.Fatalf("callback failure leaked temp files: %v", o)
	}
}
