// Package sim provides the discrete-event simulation kernel that every
// timed component in the CoolPIM system (GPU, HMC, thermal model,
// throttling controllers) is scheduled on. It plays the role the
// Structural Simulation Toolkit (SST) plays in the paper's evaluation
// infrastructure: a single global event queue with deterministic
// ordering, plus periodic "ticker" helpers for polled components such as
// the thermal integrator.
package sim

import (
	"fmt"
	"time"

	"coolpim/internal/units"
)

// Event is a callback scheduled to run at a simulated time.
type Event func(now units.Time)

// Observer receives engine-level profiling callbacks: one call per
// executed event, with the component label the event was scheduled
// under, its simulated timestamp, and the wall-clock nanoseconds the
// handler took. The engine only reads the wall clock while an observer
// is attached, so the disabled path stays free of timing syscalls.
// Observer data never feeds back into the simulation; determinism is
// unaffected.
type Observer interface {
	EventExecuted(label string, at units.Time, wallNs int64)
}

// RunObserver is an optional extension of Observer: an attached
// observer that also implements it is notified when Run/RunUntil
// begins and when it returns, with the engine's simulated time at each
// point. Like Observer, it is profiling-only — nothing it does may
// feed back into simulated state.
type RunObserver interface {
	Observer
	RunStarted(at units.Time)
	RunEnded(at units.Time)
}

type item struct {
	at    units.Time
	seq   uint64 // insertion order; breaks ties deterministically
	label uint16 // interned component label for profiling (see AtNamed)
	next  int32  // next node of its ring bucket, as an arena index (queue.go)
	fn    Event
}

// Engine is a discrete-event simulation engine. The zero value is ready
// to use. Engines are not safe for concurrent use; the simulation is
// single-threaded and deterministic by design.
type Engine struct {
	now    units.Time
	seq    uint64
	queue  eventQueue
	nSteps uint64
	halted bool
	obs    Observer
	// Labels are interned to small ids so queued items stay compact and
	// label inheritance is an integer copy; id 0 is the empty label.
	curLabel uint16 // label id of the currently executing event
	labels   []string
	labelIDs map[string]uint16
	// tickers is the free list of the pooled Every path (see everyID).
	tickers []*ticker
}

// Reserve pre-sizes the event queue's node arena so roughly n events
// can be pending without growing it — a capacity hint for harnesses
// that know their peak queue depth. It never shrinks.
func (e *Engine) Reserve(n int) { e.queue.reserve(n) }

// New returns an empty engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// SetObserver attaches (or, with nil, detaches) a profiling observer.
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past panics with *PastScheduleError: it always indicates a component
// bug, and silently reordering time would destroy causality.
//
// The event inherits the component label of the event currently
// executing (if any), so a component that seeds its chains with AtNamed
// keeps its label through arbitrarily nested rescheduling.
func (e *Engine) At(t units.Time, fn Event) {
	e.atID(t, e.curLabel, fn)
}

// AtNamed is At with an explicit component label for engine profiling:
// the attached Observer aggregates event counts and handler wall time
// per label. Components label the events that start their causal chains
// ("gpu", "hmc", "thermal", ...); everything they schedule from inside
// those events inherits the label automatically.
func (e *Engine) AtNamed(t units.Time, label string, fn Event) {
	e.atID(t, e.intern(label), fn)
}

// PastScheduleError is the panic value raised when an event is
// scheduled before the engine's current time. It is a distinct type so
// harnesses that intentionally probe the causality check can
// `recover()` and assert on it without string matching.
type PastScheduleError struct {
	At  units.Time // requested event time
	Now units.Time // engine time when the request was made
}

func (e *PastScheduleError) Error() string {
	return fmt.Sprintf("sim: scheduling event at %v before now %v", e.At, e.Now)
}

// atID is the schedule path, entered once per scheduled event.
//
//coolpim:hotpath
func (e *Engine) atID(t units.Time, label uint16, fn Event) {
	if t < e.now {
		panic(&PastScheduleError{At: t, Now: e.now})
	}
	e.seq++
	e.queue.push(t, e.seq, label, fn)
}

// intern maps a label to its stable small id, allocating one on first
// sight. The empty label is id 0; an implausible overflow of the id
// space degrades to unlabeled rather than failing.
func (e *Engine) intern(label string) uint16 {
	if label == "" {
		return 0
	}
	if id, ok := e.labelIDs[label]; ok {
		return id
	}
	if len(e.labels) == 0 {
		e.labels = append(e.labels, "")
	}
	if len(e.labels) > 1<<16-1 {
		return 0
	}
	id := uint16(len(e.labels))
	e.labels = append(e.labels, label)
	if e.labelIDs == nil {
		e.labelIDs = make(map[string]uint16)
	}
	e.labelIDs[label] = id
	return id
}

// labelName resolves an interned label id.
func (e *Engine) labelName(id uint16) string {
	if int(id) < len(e.labels) {
		return e.labels[id]
	}
	return ""
}

// Label is a pre-interned component label, scoped to the engine that
// interned it. Components that schedule on their hot path intern their
// label once at construction and use AtLabel/AfterLabel, skipping
// AtNamed's per-call intern lookup.
type Label uint16

// Label interns name and returns its handle (see AtNamed for semantics).
func (e *Engine) Label(name string) Label { return Label(e.intern(name)) }

// AtLabel is AtNamed with a pre-interned label.
func (e *Engine) AtLabel(t units.Time, l Label, fn Event) { e.atID(t, uint16(l), fn) }

// AfterLabel is AfterNamed with a pre-interned label.
func (e *Engine) AfterLabel(d units.Time, l Label, fn Event) { e.afterID(d, uint16(l), fn) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d units.Time, fn Event) {
	e.afterID(d, e.curLabel, fn)
}

// AfterNamed is After with an explicit component label (see AtNamed).
func (e *Engine) AfterNamed(d units.Time, label string, fn Event) {
	e.afterID(d, e.intern(label), fn)
}

func (e *Engine) afterID(d units.Time, label uint16, fn Event) {
	if d < 0 {
		panic(&PastScheduleError{At: e.now + d, Now: e.now})
	}
	e.atID(e.now+d, label, fn)
}

// Every schedules fn to run every period, starting one period from now,
// until either fn returns false or the engine halts.
func (e *Engine) Every(period units.Time, fn func(now units.Time) bool) {
	e.everyID(period, e.curLabel, fn)
}

// EveryNamed is Every with an explicit component label (see AtNamed).
func (e *Engine) EveryNamed(period units.Time, label string, fn func(now units.Time) bool) {
	e.everyID(period, e.intern(label), fn)
}

// ticker is the reusable state behind one Every registration. The
// bound tick Event is created once per ticker object and the objects
// themselves are pooled on the engine, so a ticker that stops and a new
// periodic task that starts reuse both the struct and its Event — the
// periodic thermal/sampler paths stop allocating a schedule per period.
type ticker struct {
	e      *Engine
	period units.Time
	label  uint16
	fn     func(now units.Time) bool
	ev     Event // t.tick bound once; reused for every reschedule
}

// tick is the periodic-tick hot path, entered once per ticker period.
//
//coolpim:hotpath
func (t *ticker) tick(now units.Time) {
	if !t.fn(now) { //coolpim:allow hotalloc ticker callback is inherently dynamic; handler bodies are proven by their own hotpath roots
		t.e.releaseTicker(t)
		return
	}
	t.e.atID(now+t.period, t.label, t.ev)
}

func (e *Engine) acquireTicker() *ticker {
	if n := len(e.tickers); n > 0 {
		t := e.tickers[n-1]
		e.tickers[n-1] = nil
		e.tickers = e.tickers[:n-1]
		return t
	}
	t := &ticker{e: e}
	t.ev = t.tick
	return t
}

func (e *Engine) releaseTicker(t *ticker) {
	t.fn = nil                       // release the callback for GC
	e.tickers = append(e.tickers, t) //coolpim:allow hotalloc pooled free list; growth is bounded by the peak concurrent ticker count
}

func (e *Engine) everyID(period units.Time, label uint16, fn func(now units.Time) bool) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	t := e.acquireTicker()
	t.period, t.label, t.fn = period, label, fn
	e.atID(e.now+period, label, t.ev)
}

// Halt stops the engine: Run and RunUntil return after the current event
// finishes. Pending events remain queued.
func (e *Engine) Halt() { e.halted = true }

// step executes the next event. It reports false when the queue is empty
// or the engine is halted.
//
//coolpim:hotpath
func (e *Engine) step(limit units.Time) bool {
	if e.halted {
		return false
	}
	at, label, fn, ok := e.queue.popUntil(limit)
	if !ok {
		return false
	}
	e.now = at
	e.nSteps++
	e.curLabel = label
	if e.obs != nil {
		// Wall time here is observer profiling only and never feeds back
		// into simulated state; the determinism analyzer bakes in this
		// exception for Engine.step, so no allow directive is needed.
		start := time.Now()
		fn(e.now)                                                                    //coolpim:allow hotalloc event dispatch is inherently dynamic; handler bodies are proven by their own hotpath roots
		e.obs.EventExecuted(e.labelName(label), at, time.Since(start).Nanoseconds()) //coolpim:allow hotalloc profiling callback only runs with an observer attached; disabled runs never reach it
	} else {
		fn(e.now) //coolpim:allow hotalloc event dispatch is inherently dynamic; handler bodies are proven by their own hotpath roots
	}
	e.curLabel = 0
	return true
}

// Run executes events until the queue drains or Halt is called. It
// returns the final simulated time.
func (e *Engine) Run() units.Time {
	const maxTime = units.Time(1<<63 - 1)
	ro, _ := e.obs.(RunObserver)
	if ro != nil {
		ro.RunStarted(e.now)
	}
	for e.step(maxTime) {
	}
	if ro != nil {
		ro.RunEnded(e.now)
	}
	return e.now
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t (if it is ahead of the last event). It returns the final time.
func (e *Engine) RunUntil(t units.Time) units.Time {
	ro, _ := e.obs.(RunObserver)
	if ro != nil {
		ro.RunStarted(e.now)
	}
	for e.step(t) {
	}
	if !e.halted && e.now < t {
		e.now = t
	}
	if ro != nil {
		ro.RunEnded(e.now)
	}
	return e.now
}
