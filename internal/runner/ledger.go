package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"sync"
)

// Entry statuses.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// Entry is one JSONL ledger record: the final outcome of one job. A
// campaign appends an entry (and syncs the file) as each run completes,
// so a killed campaign leaves a ledger describing exactly the work that
// finished — at worst with one torn trailing line, which resume
// tolerates.
type Entry struct {
	Key        string `json:"key"`
	ConfigHash string `json:"config_hash"`
	Status     string `json:"status"`
	// Ok is the explicit success marker resume keys on: it asserts that
	// Result — even when empty — faithfully encodes the job's value. A
	// successful run whose value serializes to JSON null is recorded
	// payload-free with Ok set, so it is still reused on resume instead
	// of silently re-simulated (the old heuristic treated any entry
	// without a payload as incomplete). A success whose value could not
	// be serialized at all is recorded with Ok unset and re-runs.
	Ok       bool            `json:"ok,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	WallMs   float64         `json:"wall_ms,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// Ledger is the append-only JSONL run ledger behind checkpoint/resume.
// A nil *Ledger is a valid "disabled" ledger: Completed misses and
// Append is a no-op.
type Ledger struct {
	mu sync.Mutex
	f  *os.File //coolpim:guard mu
	// done holds the reusable entries, loaded on resume and appended
	// since, by key and then config hash.
	done map[string]map[string]Entry //coolpim:guard mu
}

// OpenLedger opens (creating if needed) the ledger at path. With
// resume, existing entries are loaded first: later campaigns skip jobs
// whose (key, config-hash) matches a successful entry, failed entries
// are re-run, unparsable lines — the torn tail of a killed campaign —
// are skipped, and new entries are appended after the old ones.
// Without resume the file is truncated.
func OpenLedger(path string, resume bool) (*Ledger, error) {
	l := &Ledger{done: make(map[string]map[string]Entry)}
	needNewline := false
	if resume {
		data, err := os.ReadFile(path)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("runner: reading ledger: %w", err)
		}
		needNewline = len(data) > 0 && data[len(data)-1] != '\n'
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			var e Entry
			if err := json.Unmarshal([]byte(line), &e); err != nil || e.Key == "" {
				continue // torn or foreign line; never trust it
			}
			l.record(e)
		}
	}
	flags := os.O_CREATE | os.O_WRONLY
	if resume {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: opening ledger: %w", err)
	}
	if needNewline {
		// Terminate the torn line a killed campaign left behind so our
		// first append starts on a fresh line.
		if _, err := f.Write([]byte("\n")); err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: repairing ledger tail: %w", err)
		}
	}
	l.f = f
	return l, nil
}

// record makes e the latest outcome of its (key, config hash). A
// success is kept if it carries a reusable result: either the explicit
// Ok marker (which covers legitimately empty payloads) or, for entries
// written before the marker existed, a non-empty payload. Anything else
// supersedes an earlier success (e.g. a re-run after a config revert).
//
//coolpim:locked mu
func (l *Ledger) record(e Entry) {
	if e.Status != StatusOK || (!e.Ok && len(e.Result) == 0) {
		delete(l.done[e.Key], e.ConfigHash)
		return
	}
	if l.done[e.Key] == nil {
		l.done[e.Key] = make(map[string]Entry)
	}
	l.done[e.Key][e.ConfigHash] = e
}

// Resumable returns how many reusable entries the ledger holds: at
// open, those loaded on resume.
func (l *Ledger) Resumable() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, byHash := range l.done {
		n += len(byHash)
	}
	return n
}

// Completed returns the reusable entry for key produced under
// configHash.
func (l *Ledger) Completed(key, configHash string) (Entry, bool) {
	if l == nil {
		return Entry{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.done[key][configHash]
	return e, ok
}

// Entries returns key's reusable entries under every config hash, in
// hash order.
func (l *Ledger) Entries(key string) []Entry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := slices.Collect(maps.Values(l.done[key]))
	slices.SortFunc(out, func(a, b Entry) int { return strings.Compare(a.ConfigHash, b.ConfigHash) })
	return out
}

// Append writes one entry and syncs the file, so an entry either made
// it to stable storage or the torn line is discarded on resume. An
// appended success also satisfies later campaigns in this process.
func (l *Ledger) Append(e Entry) error {
	if l == nil {
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(append(b, '\n')); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.record(e)
	return nil
}

// Close closes the underlying file.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// HashConfig fingerprints an arbitrary configuration value by hashing
// its JSON encoding (map keys are sorted by encoding/json, so the
// encoding — and hence the hash — is deterministic). Ledger entries
// written under a different hash are ignored on resume, so a campaign
// whose configuration changed re-runs everything instead of silently
// mixing results from two configurations.
func HashConfig(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("runner: hashing config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}
