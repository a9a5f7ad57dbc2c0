package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"coolpim/internal/units"
)

// ---- Reference implementation ----

// refItem / refHeap are a straight container/heap priority queue with
// the engine's (at, seq) order. The differential tests replay identical
// schedules through it and the engine and demand identical execution
// order.
type refItem struct {
	at  units.Time
	seq uint64
	id  int
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() (p any) { old := *h; n := len(old); p = old[n-1]; *h = old[:n-1]; return }

// ---- Differential replay ----

// queueTrace is a schedule the differential tests replay: root events,
// the deltas each event schedules its children at (indexed by event id,
// ids assigned in scheduling order), and the RunUntil windows that
// drive the run before a final Run drains it.
type queueTrace struct {
	roots   []units.Time
	steps   [][]units.Time
	windows []queueWindow
}

// queueWindow is one RunUntil call: the limit is now+length. After it
// returns, one event is pushed at limit + (next-limit)*frac/256, between
// the limit and the next pending event.
type queueWindow struct {
	length units.Time
	frac   int64
}

func (tr *queueTrace) children(id int) []units.Time {
	if id < len(tr.steps) {
		return tr.steps[id]
	}
	return nil
}

// multiScaleDelta maps a class and a jitter to a scheduling delta at one
// of the scales the simulator schedules at: the same instant, the next
// few ps, inside one 1,024 ps bucket and just past it, a DRAM access, an
// L2 miss's HMC round trip (~260 ns), a few µs (either side of a 4.2 µs
// horizon) and a thermal tick far past it.
func multiScaleDelta(class int, jitter uint64) units.Time {
	switch class % 8 {
	case 0:
		return 0
	case 1:
		return units.Time(1 + jitter%3)
	case 2:
		return 700
	case 3:
		return units.Nanosecond
	case 4:
		return 16 * units.Nanosecond
	case 5:
		return 260 * units.Nanosecond
	case 6:
		return 2*units.Microsecond + units.Time(jitter%uint64(6*units.Microsecond))
	default:
		return 64 * units.Microsecond
	}
}

// genTrace builds a deterministic random multi-scale schedule. The
// roots collide on purpose (plenty of exact ties), and a quarter of the
// traces run without windows so plain Run is covered on its own.
func genTrace(rng *rand.Rand) *queueTrace {
	tr := &queueTrace{}
	initial := 1 + rng.Intn(30)
	for i := 0; i < initial; i++ {
		tr.roots = append(tr.roots, units.Time(rng.Int63n(40)))
	}
	n := initial + rng.Intn(400)
	for i := 0; i < n; i++ {
		var deltas []units.Time
		for c := rng.Intn(4); c > 0; c-- {
			deltas = append(deltas, multiScaleDelta(rng.Intn(8), rng.Uint64()))
		}
		tr.steps = append(tr.steps, deltas)
	}
	if rng.Intn(4) > 0 {
		for w := rng.Intn(60); w > 0; w-- {
			tr.windows = append(tr.windows, queueWindow{
				length: multiScaleDelta(rng.Intn(8), rng.Uint64()),
				frac:   rng.Int63n(256),
			})
		}
	}
	return tr
}

// queueModel is the surface the replay drives: the real Engine and the
// reference heap each implement it.
type queueModel interface {
	schedule(at units.Time)
	runUntil(limit units.Time)
	run()
	next() (units.Time, bool)
	pending() int
	clock() units.Time
}

// replayLog is what a replay observes: the executed ids in order and,
// after every window, the clock, the next pending time and the count.
type replayLog struct {
	exec    []int
	windows [][4]int64
}

func replay(tr *queueTrace, m queueModel, log *replayLog) {
	for _, at := range tr.roots {
		m.schedule(at)
	}
	for _, w := range tr.windows {
		limit := m.clock() + w.length
		m.runUntil(limit)
		next, ok := m.next()
		if ok {
			m.schedule(limit + (next-limit)*units.Time(w.frac)/256)
		}
		okBit := int64(0)
		if ok {
			okBit = 1
		}
		log.windows = append(log.windows, [4]int64{int64(m.clock()), int64(next), okBit, int64(m.pending())})
	}
	m.run()
}

// refModel executes a trace on the reference heap.
type refModel struct {
	tr  *queueTrace
	log *replayLog
	now units.Time
	seq uint64
	id  int
	h   refHeap
}

func (r *refModel) schedule(at units.Time) {
	r.seq++
	heap.Push(&r.h, refItem{at: at, seq: r.seq, id: r.id})
	r.id++
}

func (r *refModel) runUntil(limit units.Time) {
	for len(r.h) > 0 && r.h[0].at <= limit {
		it := heap.Pop(&r.h).(refItem)
		r.now = it.at
		r.log.exec = append(r.log.exec, it.id)
		for _, d := range r.tr.children(it.id) {
			r.schedule(r.now + d)
		}
	}
	if r.now < limit {
		r.now = limit
	}
}

func (r *refModel) run() {
	for len(r.h) > 0 {
		r.runUntil(r.h[0].at)
	}
}

func (r *refModel) next() (units.Time, bool) {
	if len(r.h) == 0 {
		return 0, false
	}
	return r.h[0].at, true
}

func (r *refModel) pending() int      { return len(r.h) }
func (r *refModel) clock() units.Time { return r.now }

// engineModel executes a trace on the real Engine.
type engineModel struct {
	tr  *queueTrace
	log *replayLog
	e   *Engine
	id  int
}

func (m *engineModel) schedule(at units.Time) {
	id := m.id
	m.id++
	m.e.At(at, func(now units.Time) {
		m.log.exec = append(m.log.exec, id)
		for _, d := range m.tr.children(id) {
			m.schedule(now + d)
		}
	})
}

func (m *engineModel) runUntil(limit units.Time) { m.e.RunUntil(limit) }
func (m *engineModel) run()                      { m.e.Run() }
func (m *engineModel) pending() int              { return m.e.queue.len() }
func (m *engineModel) clock() units.Time         { return m.e.Now() }

func (m *engineModel) next() (units.Time, bool) {
	if m.e.queue.len() == 0 {
		return 0, false
	}
	return m.e.queue.minAt(), true
}

// diffTrace replays tr through the engine and the reference heap and
// returns a description of the first divergence, or "".
func diffTrace(tr *queueTrace) string {
	var want, got replayLog
	replay(tr, &refModel{tr: tr, log: &want}, &want)
	replay(tr, &engineModel{tr: tr, log: &got, e: New()}, &got)
	for i := range want.windows {
		if got.windows[i] != want.windows[i] {
			return fmt.Sprintf("after window %d: engine (now, next, ok, pending) = %v, reference %v",
				i, got.windows[i], want.windows[i])
		}
	}
	if len(got.exec) != len(want.exec) {
		return fmt.Sprintf("engine ran %d events, reference %d", len(got.exec), len(want.exec))
	}
	for i := range got.exec {
		if got.exec[i] != want.exec[i] {
			return fmt.Sprintf("divergence at step %d: engine ran %d, reference %d", i, got.exec[i], want.exec[i])
		}
	}
	return ""
}

// TestQueueMatchesReferenceHeap replays randomized multi-scale schedules
// (ties, same-instant and next-ps rescheduling, deltas across bucket
// edges, past the ring horizon and far past it) through the engine and
// the reference container/heap, under RunUntil windows of random length
// with an event pushed after each window between its limit and the next
// pending event, and asserts identical execution order event by event.
func TestQueueMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		if msg := diffTrace(genTrace(rng)); msg != "" {
			t.Fatalf("trial %d: %s", trial, msg)
		}
	}
}

// FuzzQueueOrder decodes its input into a multi-scale schedule and RunUntil
// windows and checks the engine's execution order, clock, next event
// time and pending count against the reference heap.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{3, 0, 8, 5, 2, 6, 0, 2, 3, 1, 0, 14, 3, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg := diffTrace(decodeTrace(data)); msg != "" {
			t.Fatal(msg)
		}
	})
}

// decodeTrace reads a queueTrace from fuzz bytes. Layout: a root count,
// one delta byte per root; a window count, a delta byte and a frac byte
// per window; then steps to the end of the input, each a child count
// (low 2 bits) followed by one delta byte per child. A delta byte holds
// a multiScaleDelta class in its low 3 bits and a jitter in the rest. An
// exhausted input reads as zeros, so every input decodes and every
// trace terminates.
func decodeTrace(data []byte) *queueTrace {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	delta := func() units.Time {
		b := next()
		// Spread the 5 jitter bits over the whole 64-bit range.
		return multiScaleDelta(b&7, uint64(b>>3)*0x9E3779B97F4A7C15)
	}
	tr := &queueTrace{}
	for n := 1 + next()%32; n > 0; n-- {
		tr.roots = append(tr.roots, delta())
	}
	for n := next() % 64; n > 0; n-- {
		tr.windows = append(tr.windows, queueWindow{length: delta(), frac: int64(next())})
	}
	for len(data) > 0 {
		var deltas []units.Time
		for c := next() & 3; c > 0; c-- {
			deltas = append(deltas, delta())
		}
		tr.steps = append(tr.steps, deltas)
	}
	return tr
}

// ---- Allocation guarantees ----

// TestSteadyStateZeroAllocs pins the tentpole property: once the queue
// slices are warm, After + step (including a live pooled Every ticker)
// allocate nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	e := New()
	e.Reserve(256)
	nop := func(units.Time) {}
	e.Every(10, func(units.Time) bool { return true })
	var i int64
	work := func() {
		i++
		e.After(units.Time(i%64), nop)
		e.After(0, nop)
		e.RunUntil(e.Now() + 7)
	}
	for w := 0; w < 2000; w++ { // warm arena/heap capacity to steady state
		work()
	}
	if avg := testing.AllocsPerRun(1000, work); avg != 0 {
		t.Fatalf("steady-state After+step allocates %.2f allocs/op, want 0", avg)
	}
}

// TestEveryTickerPooled verifies the pooled ticker path reuses ticker
// objects: a stopped periodic task's ticker serves the next Every, and
// steady-state ticking allocates nothing.
func TestEveryTickerPooled(t *testing.T) {
	e := New()
	e.Every(5, func(now units.Time) bool { return now < 20 })
	e.Run()
	if len(e.tickers) != 1 {
		t.Fatalf("stopped ticker not returned to pool (pool size %d)", len(e.tickers))
	}
	e.Every(3, func(now units.Time) bool { return now < 40 })
	if len(e.tickers) != 0 {
		t.Fatalf("new Every did not reuse the pooled ticker (pool size %d)", len(e.tickers))
	}
	e.Run()

	// Steady-state ticking is allocation-free.
	e2 := New()
	e2.Reserve(64)
	e2.Every(1, func(units.Time) bool { return true })
	e2.RunUntil(100)
	if avg := testing.AllocsPerRun(500, func() { e2.RunUntil(e2.Now() + 10) }); avg != 0 {
		t.Fatalf("steady-state Every ticking allocates %.2f allocs/op, want 0", avg)
	}
}

// ---- Engine edge cases under the calendar queue ----

// bucketWidth is one ring bucket's span of simulated time.
const bucketWidth = units.Time(1) << bucketShift

// wantSplit checks how many pending events sit in the ring and the heap.
func wantSplit(t *testing.T, e *Engine, ring, heap int) {
	t.Helper()
	if e.queue.inRing != ring || len(e.queue.heap) != heap {
		t.Fatalf("queue holds %d ring + %d heap events, want %d + %d",
			e.queue.inRing, len(e.queue.heap), ring, heap)
	}
}

// TestNextEventTimePendingMidRun probes the queue's count and earliest
// time from inside an executing event, with pending work in the cursor
// bucket, on both sides of a bucket edge and past the ring's horizon.
func TestNextEventTimePendingMidRun(t *testing.T) {
	e := New()
	checked := false
	e.At(10, func(now units.Time) {
		e.After(0, func(units.Time) {}) // cursor bucket
		e.After(0, func(units.Time) {})
		e.At(bucketWidth-1, func(units.Time) {}) // last ps of the cursor bucket
		e.At(bucketWidth, func(units.Time) {})   // first ps of the next one
		e.At(horizon, func(units.Time) {})       // one ps past the ring
		if got := e.queue.len(); got != 6 {
			t.Errorf("pending mid-run = %d, want 6 (4 ring + 1 heap + 1 pre-scheduled)", got)
		}
		wantSplit(t, e, 5, 1)
		if at := e.queue.minAt(); at != 10 {
			t.Errorf("earliest pending mid-run = %v, want 10", at)
		}
		checked = true
	})
	e.At(20, func(units.Time) {})
	e.Run()
	if !checked {
		t.Fatal("probe event never ran")
	}
	if e.queue.len() != 0 {
		t.Errorf("pending after drain = %d, want 0", e.queue.len())
	}
}

// TestHaltWithBucketedEventsPending halts mid-bucket: the rest of the
// bucket, the next bucket and the heap's events stay queued and counted.
func TestHaltWithBucketedEventsPending(t *testing.T) {
	e := New()
	ran := 0
	for i := 0; i < 6; i++ {
		e.At(10, func(units.Time) {
			ran++
			if ran == 2 {
				e.Halt()
			}
		})
	}
	e.At(bucketWidth, func(units.Time) { ran++ })
	e.At(2*horizon, func(units.Time) { ran++ })
	e.Run()
	if ran != 2 {
		t.Errorf("ran %d events after Halt at 2", ran)
	}
	if e.queue.len() != 6 {
		t.Errorf("pending after halt = %d, want 6 (5 ring + 1 heap)", e.queue.len())
	}
	wantSplit(t, e, 5, 1)
	if at := e.queue.minAt(); at != 10 {
		t.Errorf("earliest pending after halt = %v, want 10", at)
	}
}

// TestRunUntilAtBucketEdges runs the clock to limits on both sides of
// bucket edges and of the ring's horizon, then schedules around a
// wrapped cursor, where the bucket before the cursor comes last.
func TestRunUntilAtBucketEdges(t *testing.T) {
	e := New()
	var fired []units.Time
	rec := func(now units.Time) { fired = append(fired, now) }
	for _, at := range []units.Time{bucketWidth - 1, bucketWidth, 2*bucketWidth - 1, 2 * bucketWidth, horizon - 1, horizon, horizon + bucketWidth} {
		e.At(at, rec)
	}
	wantSplit(t, e, 5, 2)
	for i, limit := range []units.Time{bucketWidth - 2, bucketWidth - 1, bucketWidth, 2*bucketWidth - 1, 2 * bucketWidth, horizon - 1, horizon, horizon + bucketWidth} {
		e.RunUntil(limit)
		if len(fired) != i || e.Now() != limit {
			t.Fatalf("RunUntil(%v): fired %v, now %v; want %d events, now %v", limit, fired, e.Now(), i, limit)
		}
	}
	// The cursor now sits on bucket 1. An event one ps short of the
	// horizon lands in bucket 0, the last in ring order; one at the
	// horizon goes to the heap.
	now := e.Now()
	e.At(now+horizon-1, rec)
	e.At(now+horizon, rec)
	e.At(now+1, rec)
	wantSplit(t, e, 2, 1)
	e.Run()
	want := []units.Time{now + 1, now + horizon - 1, now + horizon}
	if got := fired[len(fired)-3:]; got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("after the wrap fired %v, want %v", got, want)
	}
}

// TestPastScheduleErrorAllEntryPoints asserts the causality panic is
// raised, as *PastScheduleError, from every scheduling entry point.
func TestPastScheduleErrorAllEntryPoints(t *testing.T) {
	cases := []struct {
		name string
		call func(e *Engine)
	}{
		{"At", func(e *Engine) { e.At(50, nil) }},
		{"AtNamed", func(e *Engine) { e.AtNamed(50, "x", nil) }},
		{"AtLabel", func(e *Engine) { e.AtLabel(50, e.Label("x"), nil) }},
		{"After", func(e *Engine) { e.After(-1, nil) }},
		{"AfterNamed", func(e *Engine) { e.AfterNamed(-1, "x", nil) }},
		{"AfterLabel", func(e *Engine) { e.AfterLabel(-1, e.Label("x"), nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			e.At(100, func(units.Time) {})
			e.Run()
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s did not panic on past schedule", tc.name)
				}
				if _, ok := r.(*PastScheduleError); !ok {
					t.Fatalf("%s panic value is %T, want *PastScheduleError", tc.name, r)
				}
			}()
			tc.call(e)
		})
	}
}

// TestEveryLabelInheritanceAcrossPool pins label attribution through
// the pooled ticker path: a stopped ticker's label must not leak into
// the Every that reuses its struct, and ticks keep inheriting to the
// events they schedule.
func TestEveryLabelInheritanceAcrossPool(t *testing.T) {
	e := New()
	obs := &recordingObserver{}
	e.SetObserver(obs)
	e.EveryNamed(10, "first", func(now units.Time) bool { return now < 20 })
	e.Run()
	// Second ticker reuses the pooled struct; its ticks must carry the
	// new label, and an event scheduled from inside a tick inherits it.
	spawned := false
	e.EveryNamed(10, "second", func(now units.Time) bool {
		if !spawned {
			spawned = true
			e.After(1, func(units.Time) {}) // inherits "second" through the tick
		}
		return now < 60
	})
	e.RunUntil(45)
	// First ticker: ticks at 10, 20. Second: ticks at 30, 40, plus the
	// inherited one-off at 31.
	want := []string{"first", "first", "second", "second", "second"}
	if len(obs.labels) != len(want) {
		t.Fatalf("labels = %v, want %v", obs.labels, want)
	}
	for i, w := range want {
		if obs.labels[i] != w {
			t.Errorf("event %d label = %q, want %q (%v)", i, obs.labels[i], w, obs.labels)
		}
	}
}

// TestReserveKeepsContents grows capacity under load and checks no
// queued event is lost or reordered.
func TestReserveKeepsContents(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(units.Time(10-i), func(units.Time) { got = append(got, i) })
	}
	e.Reserve(1024)
	e.Run()
	if len(got) != 10 {
		t.Fatalf("ran %d events, want 10", len(got))
	}
	for i, v := range got {
		if v != 9-i {
			t.Fatalf("order after Reserve = %v, want descending ids", got)
		}
	}
}

// TestCrowdedBucketSpill fills one bucket past crowdedBucket events:
// in-order pushes still append to it, out-of-order ones spill to the
// heap, and a sparse bucket takes out-of-order pushes by sorted insert.
// Execution stays in (at, seq) order throughout.
func TestCrowdedBucketSpill(t *testing.T) {
	e := New()
	var order []int
	id := 0
	push := func(at units.Time) {
		myID := id
		id++
		e.At(at, func(units.Time) { order = append(order, myID) })
	}
	for i := 0; i < crowdedBucket; i++ {
		push(100 + units.Time(10*i)) // ids 0..15 at 100..250
	}
	push(105) // 16: out of order in a crowded bucket -> heap
	push(250) // 17: ties the tail -> appended
	push(95)  // 18: heap
	push(300) // 19: after the tail -> appended
	wantSplit(t, e, crowdedBucket+2, 2)
	push(bucketWidth + 900) // 20
	push(bucketWidth + 500) // 21: sorted insert mid-bucket
	push(bucketWidth + 500) // 22: ties 21, after it
	push(bucketWidth)       // 23: new head
	push(bucketWidth + 900) // 24: ties the tail
	wantSplit(t, e, crowdedBucket+7, 2)
	e.Run()
	want := []int{18, 0, 16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 19, 23, 21, 22, 20, 24}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}

// TestRingFixedMemory bounds the calendar's fixed storage: everything
// else the queue holds grows with the pending events.
func TestRingFixedMemory(t *testing.T) {
	if size := unsafe.Sizeof(ring{}); size > 64<<10 {
		t.Errorf("ring is %d bytes, want at most 64 KB", size)
	}
}
