package serve

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// acquireAsync queues an acquire on its own goroutine and returns a
// channel that delivers the release func once the slot is granted.
func acquireAsync(t *testing.T, a *admission, tenant string) chan func(time.Duration) {
	t.Helper()
	got := make(chan func(time.Duration), 1)
	go func() {
		rel, err := a.acquire(tenant)
		if err != nil {
			t.Error(err)
			return
		}
		got <- rel
	}()
	return got
}

// waitQueued spins until the admission queue holds n waiters.
func waitQueued(t *testing.T, a *admission, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.depth() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", a.depth(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFairnessRoundRobin pins the per-tenant scheduling: with three
// waiters from tenant A queued ahead of one from tenant B, B's single
// campaign is served second, not last.
func TestFairnessRoundRobin(t *testing.T) {
	a := newAdmission(1, 10)
	rel, err := a.acquire("A")
	if err != nil {
		t.Fatal(err)
	}

	// Queue deterministically: A1, A2, A3, then B1.
	a1 := acquireAsync(t, a, "A")
	waitQueued(t, a, 1)
	a2 := acquireAsync(t, a, "A")
	waitQueued(t, a, 2)
	a3 := acquireAsync(t, a, "A")
	waitQueued(t, a, 3)
	b1 := acquireAsync(t, a, "B")
	waitQueued(t, a, 4)

	grant := func(want chan func(time.Duration), label string) func(time.Duration) {
		t.Helper()
		select {
		case rel := <-want:
			return rel
		case <-time.After(5 * time.Second):
			t.Fatalf("%s not granted in time", label)
			return nil
		}
	}
	// Release the running slot: round-robin hands it to A's head, then
	// B's only waiter, then back to A.
	rel(0)
	rel = grant(a1, "A1")
	assertNotGranted(t, b1, "B1 before its round-robin turn")
	rel(0)
	rel = grant(b1, "B1")
	rel(0)
	rel = grant(a2, "A2")
	rel(0)
	rel = grant(a3, "A3")
	rel(0)

	if a.depth() != 0 || a.inflightNow() != 0 {
		t.Fatalf("leaked state: depth=%d inflight=%d", a.depth(), a.inflightNow())
	}
}

func assertNotGranted(t *testing.T, ch chan func(time.Duration), label string) {
	t.Helper()
	select {
	case <-ch:
		t.Fatalf("%s was granted", label)
	case <-time.After(20 * time.Millisecond):
	}
}

func (a *admission) inflightNow() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// TestOverloadedPastQueueLimit: a full queue rejects immediately with a
// Retry-After of at least a second.
func TestOverloadedPastQueueLimit(t *testing.T) {
	a := newAdmission(1, 1)
	rel, err := a.acquire("A")
	if err != nil {
		t.Fatal(err)
	}
	queued := acquireAsync(t, a, "A")
	waitQueued(t, a, 1)

	_, err = a.acquire("B")
	var over ErrOverloaded
	if !errors.As(err, &over) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if over.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", over.RetryAfter)
	}

	rel(0)
	rel2 := <-queued
	rel2(0)
}

// TestAcquireReleaseStress shakes the slot accounting under the race
// detector: many goroutines, random-ish hold times, hard cap respected.
func TestAcquireReleaseStress(t *testing.T) {
	const slots = 3
	a := newAdmission(slots, 100)
	var wg sync.WaitGroup
	var mu sync.Mutex
	running, peak := 0, 0
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel, err := a.acquire(string(rune('A' + i%4)))
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			running++
			if running > peak {
				peak = running
			}
			mu.Unlock()
			time.Sleep(time.Duration(i%3) * time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
			rel(time.Millisecond)
		}(i)
	}
	wg.Wait()
	if peak > slots {
		t.Fatalf("peak concurrency %d exceeded %d slots", peak, slots)
	}
	if a.depth() != 0 || a.inflightNow() != 0 {
		t.Fatalf("leaked state: depth=%d inflight=%d", a.depth(), a.inflightNow())
	}
}
