package serve

import (
	"sync"
	"time"
)

// Run states, in lifecycle order.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Event is one progress notification of a run, streamed to watchers as
// JSONL and kept in the run's event log for late subscribers.
type Event struct {
	Seq   int    `json:"seq"`
	State string `json:"state"`
	// Cell is the matrix cell ("workload/policy") the event concerns,
	// empty for lifecycle events.
	Cell string `json:"cell,omitempty"`
	// FromLedger marks cells restored from the resume ledger rather
	// than executed.
	FromLedger bool   `json:"from_ledger,omitempty"`
	Err        string `json:"error,omitempty"`
	ElapsedMs  int64  `json:"elapsed_ms"`
}

// run is the registry entry for one campaign (identified by its cache
// key). Exactly one live run exists per key; every request for the
// same spec shares it.
type run struct {
	id      string
	tenant  string
	created time.Time

	mu     sync.Mutex
	state  string
	events []Event
	subs   map[chan Event]struct{}
	result []byte // response payload; result and err are final once done closes
	err    error
	done   chan struct{}
}

func newRun(id, tenant string) *run {
	return &run{
		id:      id,
		tenant:  tenant,
		created: time.Now(), //coolpim:allow determinism harness run bookkeeping; never feeds simulated state
		state:   StateQueued,
		subs:    make(map[chan Event]struct{}),
		done:    make(chan struct{}),
	}
}

// emit appends an event (stamping sequence and elapsed time) and fans
// it out to subscribers. Slow subscribers lose events rather than
// block the campaign — the event log is the source of truth and the
// final state always arrives via finish.
func (r *run) emit(state, cell string, fromLedger bool, errMsg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.emitLocked(state, cell, fromLedger, errMsg)
}

func (r *run) emitLocked(state, cell string, fromLedger bool, errMsg string) {
	if state != "" {
		r.state = state
	}
	e := Event{
		Seq:        len(r.events),
		State:      r.state,
		Cell:       cell,
		FromLedger: fromLedger,
		Err:        errMsg,
		ElapsedMs:  time.Since(r.created).Milliseconds(), //coolpim:allow determinism harness progress timestamps for watchers; never feeds simulated state
	}
	r.events = append(r.events, e)
	for ch := range r.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// finish resolves the run; its executor calls it exactly once.
func (r *run) finish(result []byte, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.err = err
		r.emitLocked(StateFailed, "", false, err.Error())
	} else {
		r.result = result
		r.emitLocked(StateDone, "", false, "")
	}
	close(r.done)
}

// subscribe registers a watcher and returns the events it missed plus
// its live channel; unsubscribe with the returned func.
func (r *run) subscribe() (backlog []Event, ch chan Event, cancel func()) {
	ch = make(chan Event, 64)
	r.mu.Lock()
	backlog = append([]Event(nil), r.events...)
	r.subs[ch] = struct{}{}
	r.mu.Unlock()
	return backlog, ch, func() {
		r.mu.Lock()
		delete(r.subs, ch)
		r.mu.Unlock()
	}
}

// snapshot returns the run's externally visible status.
func (r *run) snapshot() (state string, result []byte, errMsg string, events int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		errMsg = r.err.Error()
	}
	return r.state, r.result, errMsg, len(r.events)
}

// registry tracks this process's runs by cache key.
type registry struct {
	mu sync.Mutex
	m  map[string]*run
}

func newRegistry() *registry { return &registry{m: make(map[string]*run)} }

// getOrCreate returns the run for id, creating it if absent; created
// reports whether this caller is the one that must execute it. A run
// in flight or done is the join point for every later request; a
// failed run is replaced by a fresh one, so failures are retried.
func (g *registry) getOrCreate(id, tenant string) (r *run, created bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok := g.m[id]; ok {
		if state, _, _, _ := r.snapshot(); state != StateFailed {
			return r, false
		}
	}
	r = newRun(id, tenant)
	g.m[id] = r
	return r, true
}

func (g *registry) get(id string) (*run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.m[id]
	return r, ok
}
