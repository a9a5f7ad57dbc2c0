package sim

import (
	"math/rand"
	"sort"
	"testing"

	"coolpim/internal/units"
)

func TestEmptyEngine(t *testing.T) {
	e := New()
	if got := e.Run(); got != 0 {
		t.Errorf("empty Run() ended at %v, want 0", got)
	}
	if e.queue.len() != 0 || e.nSteps != 0 {
		t.Errorf("empty engine has pending=%d steps=%d", e.queue.len(), e.nSteps)
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func(units.Time) { order = append(order, 3) })
	e.At(10, func(units.Time) { order = append(order, 1) })
	e.At(20, func(units.Time) { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events ran in order %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Errorf("final time %v, want 30", e.Now())
	}
}

func TestTieBreakByInsertion(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(units.Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran in order %v, want insertion order", order)
		}
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	e := New()
	var fired []units.Time
	e.At(10, func(now units.Time) {
		fired = append(fired, now)
		e.After(5, func(now units.Time) { fired = append(fired, now) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Errorf("fired at %v, want [10 15]", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func(units.Time) {})
	e.Run()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("scheduling in the past did not panic")
		}
		pse, ok := r.(*PastScheduleError)
		if !ok {
			t.Fatalf("panic value is %T, want *PastScheduleError", r)
		}
		if pse.At != 50 || pse.Now != 100 {
			t.Errorf("PastScheduleError{At: %v, Now: %v}, want {50, 100}", pse.At, pse.Now)
		}
		if pse.Error() == "" {
			t.Error("PastScheduleError.Error() is empty")
		}
	}()
	e.At(50, func(units.Time) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("negative delay did not panic")
		}
		if _, ok := r.(*PastScheduleError); !ok {
			t.Fatalf("panic value is %T, want *PastScheduleError", r)
		}
	}()
	e.After(-1, func(units.Time) {})
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []units.Time
	for _, at := range []units.Time{10, 20, 30, 40} {
		e.At(at, func(now units.Time) { fired = append(fired, now) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v, want two events", fired)
	}
	if e.Now() != 25 {
		t.Errorf("clock at %v after RunUntil(25)", e.Now())
	}
	if e.queue.len() != 2 {
		t.Errorf("pending = %d, want 2", e.queue.len())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("after RunUntil(100) fired %v, want 4 events", fired)
	}
	if e.Now() != 100 {
		t.Errorf("clock at %v, want 100", e.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := New()
	ran := false
	e.At(25, func(units.Time) { ran = true })
	e.RunUntil(25)
	if !ran {
		t.Error("event exactly at RunUntil boundary did not run")
	}
}

func TestHalt(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(units.Time(i), func(units.Time) {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("ran %d events after Halt at 3", count)
	}
	if !e.halted {
		t.Error("halted = false after Halt")
	}
	if e.queue.len() != 7 {
		t.Errorf("pending = %d, want 7", e.queue.len())
	}
}

func TestEvery(t *testing.T) {
	e := New()
	var ticks []units.Time
	e.Every(10, func(now units.Time) bool {
		ticks = append(ticks, now)
		return now < 50
	})
	e.Run()
	want := []units.Time{10, 20, 30, 40, 50}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestEveryNonPositivePanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	e.Every(0, func(units.Time) bool { return true })
}

func TestNextEventTime(t *testing.T) {
	e := New()
	if n := e.queue.len(); n != 0 {
		t.Errorf("empty queue holds %d events", n)
	}
	e.At(42, func(units.Time) {})
	if n, at := e.queue.len(), e.queue.minAt(); n != 1 || at != 42 {
		t.Errorf("queue holds %d events, earliest at %v; want 1 at 42", n, at)
	}
}

// TestRandomScheduleIsTimeSorted is a property test: any batch of events
// with random timestamps executes in non-decreasing time order and the
// engine visits every event exactly once.
func TestRandomScheduleIsTimeSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		e := New()
		n := 1 + rng.Intn(200)
		times := make([]units.Time, n)
		var got []units.Time
		for i := range times {
			times[i] = units.Time(rng.Int63n(1000))
			at := times[i]
			e.At(at, func(now units.Time) {
				if now != at {
					t.Fatalf("event scheduled at %v ran at %v", at, now)
				}
				got = append(got, now)
			})
		}
		e.Run()
		if len(got) != n {
			t.Fatalf("ran %d events, want %d", len(got), n)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("events ran out of time order: %v", got)
		}
		if e.nSteps != uint64(n) {
			t.Fatalf("steps = %d, want %d", e.nSteps, n)
		}
	}
}
