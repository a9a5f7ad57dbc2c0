package main

import (
	"bytes"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"coolpim/internal/analyzers"
	"coolpim/internal/analyzers/driver"
	"coolpim/internal/analyzers/load"
)

// TestSweepAnalyzesDependenciesFirst sweeps hotalloc's hotdep fixture
// alone: the sweep must analyze its import hotbase first, so hotdep's
// hot function sees hotbase.Alloc's dirty fact (one finding) instead of
// three calls with no hotalloc fact.
func TestSweepAnalyzesDependenciesFirst(t *testing.T) {
	src := filepath.Join("..", "..", "internal", "analyzers", "hotalloc", "testdata", "src")
	loader, err := load.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []string{"hotbase", "hotdep"} {
		dir, err := filepath.Abs(filepath.Join(src, pkg))
		if err != nil {
			t.Fatal(err)
		}
		loader.Overlay("coolpim/internal/"+pkg, dir)
	}
	s := newSweep(loader, analyzers.All())
	if err := s.analyze("coolpim/internal/hotdep"); err != nil {
		t.Fatal(err)
	}
	if len(s.findings) != 1 {
		t.Fatalf("findings = %v, want exactly one (the Alloc call)", s.findings)
	}
	if msg := s.findings[0].Message; !strings.Contains(msg, "calls coolpim/internal/hotbase.Alloc which allocates") {
		t.Errorf("finding = %q, want hotbase.Alloc's dirty fact", msg)
	}
}

// TestExitRule pins the output contract on a fixture directory of test
// files only, one holding a stale //coolpim:allow directive: "./..."
// finds the directory, the finding is reported with a path relative to
// the working directory, and any finding exits 1 in text and JSON alike.
func TestExitRule(t *testing.T) {
	t.Setenv("GITHUB_ACTIONS", "") // no ::error lines in the pinned stderr
	const (
		file = "testdata/src/stale/stale_test.go"
		msg  = "stale //coolpim:allow determinism directive: it suppresses no diagnostic on line 9; delete it"
	)
	cases := []struct {
		args           []string
		exit           int
		stdout, stderr string
	}{
		{
			args:   []string{"./testdata/src/..."},
			exit:   1,
			stderr: file + ":8:2: " + msg + " (allowlist)\n",
		},
		{
			args: []string{"-json", "./testdata/src/..."},
			exit: 1,
			stdout: "[\n\t{\n\t\t\"file\": \"" + file + "\",\n\t\t\"line\": 8,\n\t\t\"col\": 2,\n" +
				"\t\t\"analyzer\": \"allowlist\",\n\t\t\"message\": \"" + msg + "\"\n\t}\n]\n",
		},
		// A directive naming an analyzer that did not run is not stale.
		{
			args:   []string{"-only", "lockcheck", "-json", "./testdata/src/..."},
			exit:   0,
			stdout: "[]\n",
		},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if got := run(c.args, &stdout, &stderr); got != c.exit {
			t.Errorf("%v: exit %d, want %d", c.args, got, c.exit)
		}
		if stdout.String() != c.stdout || stderr.String() != c.stderr {
			t.Errorf("%v: stdout %q, stderr %q; want %q, %q", c.args, stdout.String(), stderr.String(), c.stdout, c.stderr)
		}
	}
}

// TestGithubAnnotation pins the workflow-command format, including
// newline escaping.
func TestGithubAnnotation(t *testing.T) {
	f := driver.Finding{
		Analyzer: "hotalloc",
		Pos:      token.Position{Filename: "internal/sim/sim.go", Line: 12, Column: 3},
		Message:  "make allocates\nsecond line",
	}
	got := githubAnnotation(f)
	want := "::error file=internal/sim/sim.go,line=12,col=3,title=coolpim-vet hotalloc::make allocates%0Asecond line"
	if got != want {
		t.Errorf("annotation = %q, want %q", got, want)
	}
}
