// Command coolpim-trace converts the simulator's JSONL telemetry
// exports into a Chrome/Perfetto trace_event JSON file, and provides
// two small helpers the observability smoke test is built on.
//
// Modes (exactly one):
//
//	coolpim-trace -spans spans.jsonl -out trace.json
//	    Convert an event stream (spans and instants, as written by
//	    coolpim-sim -spans-out) into trace_event JSON. Open the result
//	    in https://ui.perfetto.dev or chrome://tracing.
//
//	coolpim-trace -check trace.json
//	    Validate that a file parses as a trace_event array: every entry
//	    must carry string "name" and "ph" fields and numeric "ts",
//	    "pid" and "tid" fields. Exit 0 when valid, 1 when not.
//
//	coolpim-trace -get http://addr/path
//	    Fetch a URL and copy the body to stdout (exit 1 on transport
//	    error or non-2xx status). Exists so the smoke test does not
//	    depend on curl being installed.
//
//	coolpim-trace -post http://addr/path -data '{...}' [-header K:V]
//	    POST a JSON body (-data @file reads it from a file) and copy the
//	    response body to stdout; response headers go to stderr with -v.
//	    The HTTP client side of the coolpim-serve smoke test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"coolpim/internal/telemetry"
)

func main() {
	spansPath := flag.String("spans", "", "event stream JSONL (from coolpim-sim -spans-out)")
	outPath := flag.String("out", "", "output trace_event JSON path (default stdout)")
	checkPath := flag.String("check", "", "validate a trace_event JSON file instead of converting")
	getURL := flag.String("get", "", "fetch a URL and copy the body to stdout instead of converting")
	postURL := flag.String("post", "", "POST -data to a URL and copy the response body to stdout")
	data := flag.String("data", "", "request body for -post (@file reads it from a file)")
	header := flag.String("header", "", "extra request header for -post, as Key:Value")
	verbose := flag.Bool("v", false, "with -post, print the response status and headers to stderr")
	flag.Parse()

	switch {
	case *postURL != "":
		if err := post(*postURL, *data, *header, *verbose); err != nil {
			fatalf("post %s: %v", *postURL, err)
		}
	case *getURL != "":
		if err := get(*getURL); err != nil {
			fatalf("get %s: %v", *getURL, err)
		}
	case *checkPath != "":
		n, err := check(*checkPath)
		if err != nil {
			fatalf("check %s: %v", *checkPath, err)
		}
		fmt.Printf("ok: %d trace events\n", n)
	case *spansPath != "":
		if err := convert(*spansPath, *outPath); err != nil {
			fatalf("convert: %v", err)
		}
	default:
		fmt.Fprintln(os.Stderr, "specify -spans, -check, -get, or -post (see -h)")
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func convert(spansPath, outPath string) error {
	f, err := os.Open(spansPath)
	if err != nil {
		return err
	}
	records, err := telemetry.ParseSpansJSONL(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", spansPath, err)
	}
	out := io.Writer(os.Stdout)
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := telemetry.WriteChromeTrace(out, records); err != nil {
		return err
	}
	if outPath != "" {
		fmt.Printf("wrote %d records to %s\n", len(records), outPath)
	}
	return nil
}

// check validates the trace_event shape: a JSON array whose entries all
// carry string name/ph and numeric ts/pid/tid.
func check(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var entries []map[string]any
	if err := json.Unmarshal(data, &entries); err != nil {
		return 0, fmt.Errorf("not a trace_event array: %w", err)
	}
	for i, e := range entries {
		for _, k := range []string{"name", "ph"} {
			if _, ok := e[k].(string); !ok {
				return 0, fmt.Errorf("entry %d: missing string %q field", i, k)
			}
		}
		for _, k := range []string{"ts", "pid", "tid"} {
			if _, ok := e[k].(float64); !ok {
				return 0, fmt.Errorf("entry %d: missing numeric %q field", i, k)
			}
		}
	}
	return len(entries), nil
}

// post sends a JSON POST and copies the response body to stdout. A
// non-2xx status is an error (exit 1), so shell pipelines can assert on
// success without parsing; -v dumps status and headers to stderr for
// assertions on X-Cache and friends.
func post(url, data, header string, verbose bool) error {
	body := data
	if strings.HasPrefix(data, "@") {
		b, err := os.ReadFile(data[1:])
		if err != nil {
			return err
		}
		body = string(b)
	}
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if header != "" {
		k, v, ok := strings.Cut(header, ":")
		if !ok {
			return fmt.Errorf("malformed -header %q (want Key:Value)", header)
		}
		req.Header.Set(strings.TrimSpace(k), strings.TrimSpace(v))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if verbose {
		fmt.Fprintf(os.Stderr, "status: %s\n", resp.Status)
		for _, k := range []string{"X-Cache", "X-Run-Id", "Retry-After", "Location"} {
			if v := resp.Header.Get(k); v != "" {
				fmt.Fprintf(os.Stderr, "%s: %s\n", k, v)
			}
		}
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %s: %s", resp.Status, b)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

func get(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %s: %s", resp.Status, body)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}
