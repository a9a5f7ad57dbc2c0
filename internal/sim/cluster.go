package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"coolpim/internal/units"
)

// Cluster coordinates several Engines ("domains") under a conservative
// time-window barrier, the classic conservative-parallel DES scheme:
// simulated time advances in windows [T, T+L) where T is the earliest
// pending event or undelivered message across all domains and L is the
// lookahead (the minimum latency of any cross-domain interaction, here
// the inter-cube link latency). Within a window every domain executes
// its own events on its own engine, on the worker that owns it, and all
// cross-domain sends are buffered in per-(source, destination)
// outboxes. At the start of the next window each worker schedules the
// messages sent to its domains, then runs them.
//
// Determinism: a destination engine runs events by (at, seq), where seq
// is its scheduling order. One window's messages are scheduled before
// anything the next window schedules, in ascending source id and each
// source's in send order, so messages that tie on a timestamp run in
// (source, send) order, after every event the destination already held
// for that time. That is the order a sort by (at, src, send) would
// give, and it does not depend on how domains are assigned to workers:
// every shard count runs every event in the same order. The tests in
// cluster_test.go and system/multicube_test.go pin the order itself and
// the byte-identity of every shard count.
type Cluster struct {
	lookahead units.Time
	engines   []*Engine
	xlabel    []Label // per-domain pre-interned "xshard" delivery label
	shards    int

	// out[p][src*n+dst] holds src's sends to dst during the window of
	// parity p; the other parity holds the previous window's sends until
	// dst's worker schedules them. A worker appends only to its own
	// sources' boxes of the current parity and empties only its own
	// destinations' boxes of the other one.
	out [2][]outbox
	cur int // parity of the window being run; flipped by the barrier

	// halted is the cluster-wide stop flag. It may be raised from any
	// domain's event (possibly on a shard worker goroutine), so it is
	// atomic; the barrier only observes it at window boundaries, which
	// keeps the stopping point deterministic.
	halted atomic.Bool
}

// outbox is one (source, destination) message buffer.
type outbox struct {
	msgs []xmsg
	min  units.Time // earliest msgs[i].at while msgs is non-empty
}

// xmsg is one buffered cross-domain event.
type xmsg struct {
	at units.Time
	ev Event
}

// CausalityError is the panic value raised when a cross-domain send
// targets a time inside the sender's current lookahead window: such an
// event could land in a window the destination has already executed,
// breaking the conservative barrier's correctness guarantee.
type CausalityError struct {
	At        units.Time // requested delivery time
	Now       units.Time // sender's engine time at the send
	Lookahead units.Time
	Src, Dst  int
}

func (e *CausalityError) Error() string {
	return fmt.Sprintf("sim: cross-domain send %d->%d at %v violates lookahead %v (sender now %v)",
		e.Src, e.Dst, e.At, e.Lookahead, e.Now)
}

// NewCluster builds a cluster of `domains` fresh engines with the given
// lookahead. A non-positive lookahead is rejected: with zero lookahead
// every window is empty and conservative parallel execution cannot make
// progress (and would silently serialize), so it always indicates a
// configuration bug.
func NewCluster(lookahead units.Time, domains int) (*Cluster, error) {
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: cluster lookahead must be positive, got %v", lookahead)
	}
	if domains <= 0 {
		return nil, fmt.Errorf("sim: cluster needs at least one domain, got %d", domains)
	}
	c := &Cluster{
		lookahead: lookahead,
		engines:   make([]*Engine, domains),
		xlabel:    make([]Label, domains),
	}
	for p := range c.out {
		c.out[p] = make([]outbox, domains*domains)
	}
	for i := range c.engines {
		e := New()
		c.engines[i] = e
		c.xlabel[i] = e.Label("xshard")
	}
	return c, nil
}

// Domains returns the number of domains.
func (c *Cluster) Domains() int { return len(c.engines) }

// Domain returns domain i's engine. Components of domain i must be
// built on (and schedule only on) this engine.
func (c *Cluster) Domain(i int) *Engine { return c.engines[i] }

// Lookahead returns the cluster lookahead.
func (c *Cluster) Lookahead() units.Time { return c.lookahead }

// SetShards fixes how many workers execute windows: of w = min(n,
// domains) workers, worker i owns the contiguous block of domains
// [i*domains/w, (i+1)*domains/w), and worker 0 is the goroutine that
// calls RunUntil, so 1 runs every domain there, in ascending id order,
// with no other goroutine. 0 (the default) auto-sizes to one worker per
// domain. Results are byte-identical for every value — the shard count
// is a wall-clock knob only.
func (c *Cluster) SetShards(n int) {
	if n < 0 {
		n = 0
	}
	c.shards = n
}

// Send schedules ev on domain dst at absolute time at. It must be
// called from within an event executing on domain src (components hold
// their own domain id), and at must respect the lookahead: at least the
// sender's current time plus the cluster lookahead. Violations panic
// with *CausalityError. The message is scheduled on dst at the start of
// the next window, after the messages of lower source ids and of
// earlier sends by src, so results do not depend on the shard
// assignment of src and dst.
//
//coolpim:hotpath
func (c *Cluster) Send(src, dst int, at units.Time, ev Event) {
	e := c.engines[src]
	if at < e.now+c.lookahead {
		panic(&CausalityError{At: at, Now: e.now, Lookahead: c.lookahead, Src: src, Dst: dst})
	}
	b := &c.out[c.cur][src*len(c.engines)+dst]
	if len(b.msgs) == 0 || at < b.min {
		b.min = at
	}
	b.msgs = append(b.msgs, xmsg{at: at, ev: ev}) //coolpim:allow hotalloc outbox append; capacity is retained across windows, growth is bounded by peak per-window cross traffic
}

// Halt stops the cluster at the current window boundary: every domain
// finishes the window it is in (a domain that additionally halts its
// own engine stops immediately), then RunUntil returns. Safe to call
// from any domain's event, including on shard workers.
func (c *Cluster) Halt() { c.halted.Store(true) }

// nextTime returns the earliest time a non-halted domain has pending: a
// queued event, or a message the last window sent it.
func (c *Cluster) nextTime() (units.Time, bool) {
	var best units.Time
	found := false
	out := c.out[c.cur^1]
	for d, e := range c.engines {
		if e.halted {
			continue
		}
		if e.queue.len() > 0 {
			if at := e.queue.minAt(); !found || at < best {
				best, found = at, true
			}
		}
		for i := d; i < len(out); i += len(c.engines) {
			if b := &out[i]; len(b.msgs) > 0 && (!found || b.min < best) {
				best, found = b.min, true
			}
		}
	}
	return best, found
}

// windowLimit clamps a window starting at T to the run bound t. The
// engines' step(limit) executes events with at <= limit, so the
// conservative window [T, T+L) maps to limit = T+L-1; the final window
// is clamped to t inclusively, matching Engine.RunUntil semantics.
func (c *Cluster) windowLimit(T, t units.Time) units.Time {
	limit := T + c.lookahead - 1
	if limit > t || limit < T { // clamp, and guard (theoretical) overflow
		limit = t
	}
	return limit
}

// deliver schedules the messages the last window sent to dst on its
// engine, source by source in ascending id, each source's in send
// order, and empties their outboxes. No sort is needed: the engine
// orders different timestamps itself.
func (c *Cluster) deliver(dst int) {
	e := c.engines[dst]
	label := uint16(c.xlabel[dst])
	out := c.out[c.cur^1]
	for i := dst; i < len(out); i += len(c.engines) {
		b := &out[i]
		for j := range b.msgs {
			m := &b.msgs[j]
			e.atID(m.at, label, m.ev)
			m.ev = nil // do not pin delivered events in the buffer
		}
		b.msgs = b.msgs[:0]
	}
}

// nextWindow returns the limit of the next window of a run bounded by
// t, or false when the run is over: the cluster halted, or no domain
// has an event at or before t.
func (c *Cluster) nextWindow(t units.Time) (units.Time, bool) {
	if c.halted.Load() {
		return 0, false
	}
	T, ok := c.nextTime()
	if !ok || T > t {
		return 0, false
	}
	return c.windowLimit(T, t), true
}

// RunUntil executes events with timestamps <= t across all domains,
// window by window, then advances every non-halted engine's clock to t
// (mirroring Engine.RunUntil). It returns the latest domain time.
//
// The calling goroutine is worker 0; workers 1..w-1 are goroutines
// that live for the call. A panic in an event on any worker stops
// every worker and is raised again here, with the same value. Before
// returning, RunUntil schedules the last window's messages, so every
// pending event is in a queue.
func (c *Cluster) RunUntil(t units.Time) units.Time {
	for _, e := range c.engines {
		if ro, ok := e.obs.(RunObserver); ok {
			ro.RunStarted(e.now)
		}
	}
	workers := c.shards
	if workers < 1 || workers > len(c.engines) {
		workers = len(c.engines)
	}
	if limit, ok := c.nextWindow(t); ok {
		c.runWindows(workers, t, limit)
	}
	for d := range c.engines {
		c.deliver(d)
	}
	if !c.halted.Load() {
		for _, e := range c.engines {
			if !e.halted && e.now < t {
				e.now = t
			}
		}
	}
	var end units.Time
	for _, e := range c.engines {
		if e.now > end {
			end = e.now
		}
		if ro, ok := e.obs.(RunObserver); ok {
			ro.RunEnded(e.now)
		}
	}
	return end
}

// windowRun is the state the workers of one RunUntil call share.
//
// Happens-before edges: a worker's window work precedes its decrement
// of pending, and the decrement that reaches zero follows all of them,
// so the last arriver sees every worker's sends and engine state. Its
// barrier work (parity flip, limit, pending reset) precedes its sends
// on the wake channels, and so every woken worker's next window.
type windowRun struct {
	c       *Cluster
	t       units.Time // run bound
	workers int
	limit   units.Time   // current window's limit; written only by the last arriver
	pending atomic.Int32 // workers still running the current window
	// wake[w] releases parked worker w: true runs the next window,
	// false ends the run. Each buffers one value, and at most one is
	// sent per window, so no sender blocks.
	wake   []chan bool
	exited sync.WaitGroup // workers 1..w-1
	// failed is raised by the first worker whose event panics, and
	// panicVal holds its value for the caller.
	failed   atomic.Bool
	panicVal any
}

// runWindows runs the windows of a run bounded by t, the first ending
// at limit, on the given number of workers, the caller being worker 0.
// A panic on another worker is raised again here once every worker has
// exited; one on worker 0 keeps its own stack and unwinds once the
// others have exited.
func (c *Cluster) runWindows(workers int, t, limit units.Time) {
	r := &windowRun{c: c, t: t, workers: workers, limit: limit, wake: make([]chan bool, workers)}
	r.pending.Store(int32(workers))
	for w := range r.wake {
		r.wake[w] = make(chan bool, 1)
	}
	r.exited.Add(workers - 1)
	for w := 1; w < workers; w++ {
		//coolpim:allow determinism shard worker: executes whole windows of domains it exclusively owns; all cross-domain effects are buffered and scheduled in source order at the start of the next window, so event interleaving is provably schedule-independent
		go func() {
			defer r.exited.Done()
			defer func() {
				if v := recover(); v != nil {
					r.abort(w, v)
				}
			}()
			r.work(w)
		}()
	}
	returned := false
	defer func() {
		if !returned { // a panic in one of worker 0's events is unwinding
			r.abort(0, nil)
			r.exited.Wait()
		}
	}()
	r.work(0)
	returned = true
	r.exited.Wait()
	if r.failed.Load() {
		panic(r.panicVal)
	}
}

// work runs worker w's part of every window until the run ends: each
// domain of its block [w*n/W, (w+1)*n/W) schedules the messages the
// last window sent it, then executes its events up to the limit, so a
// domain's queue is only touched by its own worker, and on a chain only
// the links between blocks cross workers. The worker that finishes a
// window last runs the barrier (it flips the outbox parity and computes
// the next limit), wakes the others and goes on to its own part of the
// next window; the others park on their wake channels. A woken worker
// is readied on the waker's P, whose thread keeps running, so the P the
// woken worker left idle takes it back: each worker tends to stay on
// one thread, with its domains' state in that core's caches.
func (r *windowRun) work(w int) {
	n := len(r.c.engines)
	lo, hi := w*n/r.workers, (w+1)*n/r.workers
	for {
		limit := r.limit
		for d := lo; d < hi; d++ {
			r.c.deliver(d)
			e := r.c.engines[d]
			for e.step(limit) {
			}
		}
		if r.pending.Add(-1) > 0 {
			if !<-r.wake[w] {
				return
			}
			continue
		}
		r.c.cur ^= 1
		next, more := r.c.nextWindow(r.t)
		r.limit = next
		r.pending.Store(int32(r.workers))
		for o, ch := range r.wake {
			if o != w {
				ch <- more
			}
		}
		if !more {
			return
		}
	}
}

// abort ends the run after a panic on worker w. The first worker to
// panic records its value and releases every other worker with false.
// The panicking worker never arrives, so no worker runs the barrier of
// that window, every wake channel is empty and no send blocks.
func (r *windowRun) abort(w int, v any) {
	if !r.failed.CompareAndSwap(false, true) {
		return
	}
	r.panicVal = v
	for o, ch := range r.wake {
		if o != w {
			ch <- false
		}
	}
}
