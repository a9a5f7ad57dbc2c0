package runner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// lastParsed maps every key to the entry of the last line of data that
// parses as a keyed Entry: the model of what resume may trust.
func lastParsed(data []byte) map[string]Entry {
	last := map[string]Entry{}
	for _, line := range strings.Split(string(data), "\n") {
		var e Entry
		if json.Unmarshal([]byte(strings.TrimSpace(line)), &e) == nil && e.Key != "" {
			last[e.Key] = e
		}
	}
	return last
}

// loaded returns a copy of the successful entries l loaded at open.
func loaded(l *Ledger) map[string]Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]Entry, len(l.done))
	for k, e := range l.done {
		out[k] = e
	}
	return out
}

// FuzzOpenLedger feeds arbitrary file bytes to the resume path. For any
// input, OpenLedger must not panic and must load exactly the keys whose
// last parsing line is a successful entry. After one Append, reopening
// must load the appended entry on top of everything loaded before: the
// torn-tail repair starts the append on a fresh line and loses nothing.
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
		want := map[string]Entry{}
		for k, e := range lastParsed(data) {
			if e.Status == StatusOK {
				want[k] = e
			}
		}
		if !reflect.DeepEqual(before, want) {
			t.Fatalf("loaded %v, want the successful last-parsed entries %v", before, want)
		}

		appended := Entry{Key: "appended", ConfigHash: "h", Status: StatusOK, Ok: true, Result: json.RawMessage(`{"n":1}`)}
		if err := l.Append(appended); err != nil {
			t.Fatal(err)
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
		before[appended.Key] = appended
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
