package runner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// cell names one done-set slot: a job key under one config hash.
type cell struct{ key, hash string }

// lastParsed maps every (key, config hash) to the entry of the last
// line of data that parses as a keyed Entry: the model of what resume
// may trust.
func lastParsed(data []byte) map[cell]Entry {
	last := map[cell]Entry{}
	for _, line := range strings.Split(string(data), "\n") {
		var e Entry
		if json.Unmarshal([]byte(strings.TrimSpace(line)), &e) == nil && e.Key != "" {
			last[cell{e.Key, e.ConfigHash}] = e
		}
	}
	return last
}

// loaded returns a copy of l's reusable entries.
func loaded(l *Ledger) map[cell]Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[cell]Entry)
	for k, byHash := range l.done {
		for h, e := range byHash {
			out[cell{k, h}] = e
		}
	}
	return out
}

// FuzzOpenLedger feeds arbitrary file bytes to the resume path. For any
// input, OpenLedger must not panic and must load exactly the (key,
// config hash) pairs whose last parsing line is a reusable success.
// One Append is loaded at once and, after a reopen, on top of
// everything loaded before: the torn-tail repair starts the append on
// a fresh line and loses nothing.
func FuzzOpenLedger(f *testing.F) {
	f.Add([]byte(`{"key":"a","config_hash":"h","status":"ok","ok":true,"result":{"n":1}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "runs.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLedger(path, true)
		if err != nil {
			t.Fatal(err)
		}
		before := loaded(l)
		want := map[cell]Entry{}
		for k, e := range lastParsed(data) {
			if e.Status == StatusOK && (e.Ok || len(e.Result) > 0) {
				want[k] = e
			}
		}
		if !reflect.DeepEqual(before, want) {
			t.Fatalf("loaded %v, want the reusable last-parsed entries %v", before, want)
		}

		appended := Entry{Key: "appended", ConfigHash: "h", Status: StatusOK, Ok: true, Result: json.RawMessage(`{"n":1}`)}
		if err := l.Append(appended); err != nil {
			t.Fatal(err)
		}
		before[cell{appended.Key, appended.ConfigHash}] = appended
		if now := loaded(l); !reflect.DeepEqual(now, before) {
			t.Fatalf("after Append loaded %v, want %v", now, before)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = OpenLedger(path, true)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, ok := l.Completed(appended.Key, appended.ConfigHash); !ok {
			t.Fatalf("appended entry not loaded on reopen; file:\n%q", readFile(t, path))
		}
		if after := loaded(l); !reflect.DeepEqual(after, before) {
			t.Fatalf("reopen loaded %v, want %v", after, before)
		}
	})
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
