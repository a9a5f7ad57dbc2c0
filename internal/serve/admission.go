package serve

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// ErrOverloaded is the admission rejection: the execution slots are
// full and the wait queue is at capacity. RetryAfter is the server's
// estimate of when a slot will open (queue depth × smoothed campaign
// duration ÷ slots), surfaced as the HTTP Retry-After header.
type ErrOverloaded struct {
	RetryAfter time.Duration
}

func (e ErrOverloaded) Error() string {
	return fmt.Sprintf("serve: at capacity, retry after %v", e.RetryAfter)
}

// admission bounds how many campaigns execute at once and queues the
// overflow fairly: each tenant has its own FIFO, and freed slots are
// handed out round-robin across tenants, so one tenant posting a
// hundred campaigns cannot starve another posting one. Joins and
// recorded campaigns never pass through admission — only work that
// will actually simulate.
type admission struct {
	mu          sync.Mutex
	inflight    int
	maxInflight int
	maxQueue    int // total queued waiters across all tenants
	queued      int
	queues      map[string][]*waiter
	order       []string // round-robin order of tenants with waiters
	next        int      // round-robin cursor into order

	// ewma smooths observed campaign durations for Retry-After
	// estimates; seeded with a nominal value so the first rejection
	// still carries a sane hint.
	ewma time.Duration
}

type waiter struct {
	ready  chan struct{}
	tenant string
	gone   bool // abandoned (context cancelled) before a slot arrived
}

func newAdmission(maxInflight, maxQueue int) *admission {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{
		maxInflight: maxInflight,
		maxQueue:    maxQueue,
		queues:      make(map[string][]*waiter),
		ewma:        30 * time.Second,
	}
}

// acquire blocks until an execution slot is free, the context is
// cancelled, or the queue is full (ErrOverloaded). On success the
// caller must invoke the returned release exactly once.
func (a *admission) acquire(ctx context.Context, tenant string) (release func(time.Duration), err error) {
	a.mu.Lock()
	if a.inflight < a.maxInflight && a.queued == 0 {
		a.inflight++
		a.mu.Unlock()
		return a.release, nil
	}
	if a.queued >= a.maxQueue {
		retry := a.retryEstimateLocked()
		a.mu.Unlock()
		return nil, ErrOverloaded{RetryAfter: retry}
	}
	w := &waiter{ready: make(chan struct{}), tenant: tenant}
	if len(a.queues[tenant]) == 0 {
		a.order = append(a.order, tenant)
	}
	a.queues[tenant] = append(a.queues[tenant], w)
	a.queued++
	a.mu.Unlock()

	select {
	case <-w.ready:
		// The releasing goroutine already transferred the slot to us.
		return a.release, nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.gone {
			// Lost the race: a slot was handed to us while we were
			// cancelling. Give it back (which wakes the next waiter).
			a.mu.Unlock()
			select {
			case <-w.ready:
				a.release(0)
			default:
			}
			return nil, ctx.Err()
		}
		w.gone = true
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

// release returns a slot, records the observed campaign duration (0 =
// no observation), and hands the slot to the next queued waiter,
// round-robin across tenants.
func (a *admission) release(elapsed time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if elapsed > 0 {
		// Standard EWMA with alpha 0.3: responsive to workload shifts,
		// stable against one outlier campaign.
		a.ewma = time.Duration(0.7*float64(a.ewma) + 0.3*float64(elapsed))
	}
	for {
		w := a.popLocked()
		if w == nil {
			a.inflight--
			return
		}
		if w.gone {
			continue // abandoned while queued; slot stays ours, try next
		}
		w.gone = true // consumed: the waiter side must not re-queue
		close(w.ready)
		return // slot transferred, inflight count unchanged
	}
}

// popLocked removes the head waiter of the next tenant in round-robin
// order, or nil when every queue is empty.
func (a *admission) popLocked() *waiter {
	for len(a.order) > 0 {
		if a.next >= len(a.order) {
			a.next = 0
		}
		tenant := a.order[a.next]
		q := a.queues[tenant]
		if len(q) == 0 {
			a.queues[tenant] = nil
			delete(a.queues, tenant)
			a.order = append(a.order[:a.next], a.order[a.next+1:]...)
			continue
		}
		w := q[0]
		a.queues[tenant] = q[1:]
		a.queued--
		if len(q) == 1 {
			delete(a.queues, tenant)
			a.order = append(a.order[:a.next], a.order[a.next+1:]...)
		} else {
			a.next++
		}
		return w
	}
	return nil
}

// retryEstimateLocked projects when a slot should free up for a new
// arrival: everyone ahead of it (queued + running) divided across the
// slots, times the smoothed campaign duration, floored at one second.
func (a *admission) retryEstimateLocked() time.Duration {
	ahead := a.queued + a.inflight
	est := time.Duration(float64(a.ewma) * float64(ahead) / float64(a.maxInflight))
	if est < time.Second {
		est = time.Second
	}
	return est.Round(time.Second)
}

// depth reports the current queue depth (for metrics).
func (a *admission) depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}
