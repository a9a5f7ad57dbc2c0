// Command coolpim-vet runs the project's analyzer suite
// (internal/analyzers): determinism, unitsafety, telemetrysafe,
// eventhygiene, hotalloc and lockcheck, plus validation of
// //coolpim:allow directives (including stale-directive detection).
//
//	go run ./cmd/coolpim-vet [-only name[,name]] [-json] [-github] [dir ...]
//
// It type-checks packages from source and analyzes them in dependency
// order through one in-memory fact store. With no arguments it analyzes
// every package under the enclosing module; arguments are package
// directories ("./..." recurses). The //coolpim:allow directives in each
// package's _test.go files are validated too: those files are parsed,
// not type-checked, and no analyzer reports in them, so a directive
// there naming an analyzer that ran is stale. Run it inside the module.
//
// Output: findings are file:line:col text on stderr, with paths relative
// to the working directory. -json emits a deterministic JSON array on
// stdout instead. -github — or the GITHUB_ACTIONS environment the
// Actions runner sets — additionally emits ::error workflow commands so
// CI findings become inline annotations. The exit status is 1 when there
// is any finding, in either format, or an error; 2 on a flag error; 0
// otherwise.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"coolpim/internal/analyzers"
	"coolpim/internal/analyzers/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run sweeps the packages args name, writes the findings and returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("coolpim-vet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	enabled := make(map[string]*bool)
	for _, a := range analyzers.All() {
		enabled[a.Name] = flags.Bool(a.Name, true, "run the "+a.Name+" analyzer ("+firstSentence(a.Doc)+")")
	}
	only := flags.String("only", "", "comma-separated analyzer names to run, disabling the rest")
	jsonOut := flags.Bool("json", false, "emit diagnostics as a JSON array on stdout instead of text on stderr")
	github := flags.Bool("github", false, "also emit GitHub Actions ::error annotations (auto-enabled under GITHUB_ACTIONS)")
	flags.Usage = func() { usage(flags) }
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *only != "" {
		for name := range enabled {
			*enabled[name] = false
		}
		for _, name := range strings.Split(*only, ",") {
			b, ok := enabled[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "coolpim-vet: -only: unknown analyzer %q (known: %v)\n", name, analyzers.Names())
				return 1
			}
			*b = true
		}
	}
	var suite []*analysis.Analyzer
	for _, a := range analyzers.All() {
		if *enabled[a.Name] {
			suite = append(suite, a)
		}
	}

	findings, err := sweepDirs(flags.Args(), suite)
	if err != nil {
		fmt.Fprintf(stderr, "coolpim-vet: %v\n", err)
		return 1
	}
	out := outputOptions{
		jsonOut: *jsonOut,
		github:  *github || os.Getenv("GITHUB_ACTIONS") == "true",
	}
	if err := emit(findings, out, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "coolpim-vet: %v\n", err)
		return 1
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// outputOptions selects how findings are rendered.
type outputOptions struct {
	// jsonOut emits machine-readable JSON on stdout instead of text.
	jsonOut bool
	// github additionally emits ::error workflow commands, which the
	// GitHub Actions runner turns into inline annotations.
	github bool
}

func usage(flags *flag.FlagSet) {
	w := flags.Output()
	fmt.Fprintf(w, "usage: coolpim-vet [flags] [dir ...]\n\nanalyzers:\n")
	for _, a := range analyzers.All() {
		fmt.Fprintf(w, "  %-14s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, "\nflags:\n")
	flags.PrintDefaults()
}

func firstSentence(s string) string {
	if i := strings.IndexByte(s, ','); i > 0 {
		return s[:i]
	}
	return s
}
