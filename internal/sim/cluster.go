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
// pending event across all domains and L is the lookahead (the minimum
// latency of any cross-domain interaction, here the inter-cube link
// latency). Within a window every domain executes its own events on its
// own engine, on the worker that owns it, and all cross-domain sends are
// buffered in per-(source, destination) outboxes. At the barrier the
// coordinator schedules each destination's messages on its engine.
//
// Determinism: a destination engine runs events by (at, seq), where seq
// is its scheduling order. The barrier schedules a window's messages
// before anything the next window schedules, in ascending source id and
// each source's in send order, so messages that tie on a timestamp run
// in (source, send) order, after every event the destination already
// held for that time. That is the order a sort by (at, src, send) would
// give, and it does not depend on how domains are assigned to workers:
// every shard count runs every event in the same order. The tests in
// cluster_test.go and system/multicube_test.go pin the order itself and
// the byte-identity of every shard count.
type Cluster struct {
	lookahead units.Time
	engines   []*Engine
	xlabel    []Label // per-domain pre-interned "xshard" delivery label
	shards    int

	// out[src*n+dst] holds src's sends to dst during the current window.
	// Only src's worker appends to it; the coordinator empties it at the
	// barrier.
	out [][]xmsg

	// halted is the cluster-wide stop flag. It may be raised from any
	// domain's event (possibly on a shard worker goroutine), so it is
	// atomic; the driver only observes it at window boundaries, which
	// keeps the stopping point deterministic.
	halted atomic.Bool
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
	c.out = make([][]xmsg, domains*domains)
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

// SetShards fixes how many workers execute windows: domain d belongs to
// worker d mod w, w = min(n, domains), and worker 0 is the goroutine
// that calls RunUntil, so 1 runs every domain there, in ascending id
// order, with no other goroutine. 0 (the default) auto-sizes to one
// worker per domain. Results are byte-identical for every value — the
// shard count is a wall-clock knob only.
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
// with *CausalityError. The message is scheduled on dst at the window's
// barrier, after the messages of lower source ids and of earlier sends
// by src, so results do not depend on the shard assignment of src and
// dst.
//
//coolpim:hotpath
func (c *Cluster) Send(src, dst int, at units.Time, ev Event) {
	e := c.engines[src]
	if at < e.now+c.lookahead {
		panic(&CausalityError{At: at, Now: e.now, Lookahead: c.lookahead, Src: src, Dst: dst})
	}
	b := &c.out[src*len(c.engines)+dst]
	*b = append(*b, xmsg{at: at, ev: ev}) //coolpim:allow hotalloc outbox append; capacity is retained across windows, growth is bounded by peak per-window cross traffic
}

// Halt stops the cluster at the current window boundary: every domain
// finishes the window it is in (a domain that additionally halts its
// own engine stops immediately), then the driver returns. Safe to call
// from any domain's event, including on shard workers.
func (c *Cluster) Halt() { c.halted.Store(true) }

// nextTime returns the earliest pending event time across non-halted
// domains.
func (c *Cluster) nextTime() (units.Time, bool) {
	var best units.Time
	found := false
	for _, e := range c.engines {
		if e.halted || e.queue.len() == 0 {
			continue
		}
		if at := e.queue.minAt(); !found || at < best {
			best, found = at, true
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

// deliver is the window barrier: it schedules every buffered message on
// its destination's engine, for each destination source by source in
// ascending id, each source's in send order, and empties the outboxes.
// No sort is needed: the engine orders different timestamps itself.
func (c *Cluster) deliver() {
	n := len(c.engines)
	for dst, e := range c.engines {
		label := uint16(c.xlabel[dst])
		for i := dst; i < len(c.out); i += n {
			b := c.out[i]
			for j := range b {
				e.atID(b[j].at, label, b[j].ev)
				b[j].ev = nil // do not pin delivered events in the buffer
			}
			c.out[i] = b[:0]
		}
	}
}

// runWindow runs one window on worker w of workers: each domain the
// worker owns executes its events up to limit.
func (c *Cluster) runWindow(w, workers int, limit units.Time) {
	for d := w; d < len(c.engines); d += workers {
		e := c.engines[d]
		for e.step(limit) {
		}
	}
}

// RunUntil executes events with timestamps <= t across all domains,
// window by window, then advances every non-halted engine's clock to t
// (mirroring Engine.RunUntil). It returns the latest domain time.
//
// The calling goroutine is worker 0 and the coordinator; workers 1..w-1
// are goroutines that live for the call. The channel send publishing
// each window's limit and the WaitGroup completion form the
// happens-before edges that make outbox and engine hand-offs race-free.
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
	chans := make([]chan units.Time, workers-1)
	var lifetime, window sync.WaitGroup
	// Stop the workers on every return path, a panic in one of worker
	// 0's events included, so none is left blocked.
	defer func() {
		for _, ch := range chans {
			close(ch)
		}
		lifetime.Wait()
	}()
	for i := range chans {
		ch := make(chan units.Time, 1)
		chans[i] = ch
		w := i + 1
		lifetime.Add(1)
		//coolpim:allow determinism shard worker: executes whole windows of domains it exclusively owns; all cross-domain effects are buffered and scheduled in source order at the barrier, so event interleaving is provably schedule-independent
		go func() {
			defer lifetime.Done()
			for limit := range ch {
				c.runWindow(w, workers, limit)
				window.Done()
			}
		}()
	}
	for !c.halted.Load() {
		T, ok := c.nextTime()
		if !ok || T > t {
			break
		}
		limit := c.windowLimit(T, t)
		window.Add(len(chans))
		for _, ch := range chans {
			ch <- limit
		}
		c.runWindow(0, workers, limit)
		window.Wait()
		c.deliver()
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
