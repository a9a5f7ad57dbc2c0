package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"coolpim/internal/units"
)

func TestClusterZeroLookaheadRejected(t *testing.T) {
	if _, err := NewCluster(0, 2); err == nil {
		t.Fatal("zero lookahead accepted")
	}
	if _, err := NewCluster(-5, 2); err == nil {
		t.Fatal("negative lookahead accepted")
	}
	if _, err := NewCluster(10, 0); err == nil {
		t.Fatal("zero domains accepted")
	}
	if c, err := NewCluster(10, 3); err != nil || c.Domains() != 3 || c.Lookahead() != 10 {
		t.Fatalf("valid cluster rejected: %v %+v", err, c)
	}
}

func TestClusterSendInsideLookaheadPanics(t *testing.T) {
	c, _ := NewCluster(10, 2)
	c.Domain(0).At(100, func(now units.Time) {
		defer func() {
			r := recover()
			ce, ok := r.(*CausalityError)
			if !ok {
				t.Errorf("expected *CausalityError, got %v", r)
				return
			}
			if ce.At != 105 || ce.Now != 100 || ce.Lookahead != 10 {
				t.Errorf("bad error payload: %+v", ce)
			}
		}()
		c.Send(0, 1, now+5, func(units.Time) {})
	})
	c.RunUntil(200)
}

// TestClusterBoundaryDelivery pins the window-edge semantics: a message
// sent at exactly now+lookahead lands on the first instant of the next
// window, executes there, and orders after any event the destination
// had already scheduled for the same timestamp (delivered messages get
// later destination sequence numbers).
func TestClusterBoundaryDelivery(t *testing.T) {
	const L = 10
	c, _ := NewCluster(L, 2)
	var order []string
	c.Domain(1).At(100+L, func(now units.Time) {
		order = append(order, fmt.Sprintf("local@%d", now))
	})
	c.Domain(0).At(100, func(now units.Time) {
		c.Send(0, 1, now+L, func(at units.Time) {
			order = append(order, fmt.Sprintf("remote@%d", at))
		})
	})
	c.RunUntil(1000)
	want := []string{"local@110", "remote@110"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestClusterDeliveryOrder pins the order in which a destination runs
// cross-domain messages, independently of any other driver: messages
// that tie on a timestamp run in (source, send) order, after every
// event the destination already held for that time, and a message sent
// in a later window runs after all of them. Domains 3, 2 and 1 send in
// that order of simulated time, so source order is not send-time order.
func TestClusterDeliveryOrder(t *testing.T) {
	want := []string{
		"1#1@150", "1#3@150", "2#1@150", "2#3@150", "3#1@150", "3#3@150",
		"local@200",
		"1#0@200", "1#2@200", "2#0@200", "2#2@200", "3#0@200", "3#2@200",
		"1#late@200",
	}
	for _, procs := range []int{1, 4} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("procs=%d/shards=%d", procs, shards), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				c, _ := NewCluster(10, 4)
				c.SetShards(shards)
				var ran []string // only domain 0's events append
				c.Domain(0).At(200, func(now units.Time) {
					ran = append(ran, fmt.Sprintf("local@%d", now))
				})
				for i, src := range []int{3, 2, 1} {
					c.Domain(src).At(units.Time(100+i), func(units.Time) {
						for k, at := range []units.Time{200, 150, 200, 150} {
							tag := fmt.Sprintf("%d#%d", src, k)
							c.Send(src, 0, at, func(now units.Time) {
								ran = append(ran, fmt.Sprintf("%s@%d", tag, now))
							})
						}
					})
				}
				c.Domain(1).At(150, func(units.Time) {
					c.Send(1, 0, 200, func(now units.Time) {
						ran = append(ran, fmt.Sprintf("1#late@%d", now))
					})
				})
				c.RunUntil(1000)
				if !reflect.DeepEqual(ran, want) {
					t.Fatalf("domain 0 ran\n %v\nwant\n %v", ran, want)
				}
			})
		}
	}
}

// TestClusterHaltDrain pins the shard-drain semantics of Halt: the
// window in which Halt is raised completes on every domain (a domain
// that also halts its own engine stops immediately), later events and
// the messages that window sent stay queued on their domains, and
// clocks are not advanced to the run bound.
func TestClusterHaltDrain(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const L = 100
			c, _ := NewCluster(L, 2)
			c.SetShards(shards)
			// Domains execute concurrently under parallel shards, so each
			// logs into its own slice.
			var ran [2][]string
			c.Domain(0).At(50, func(now units.Time) {
				ran[0] = append(ran[0], "halter")
				c.Send(0, 1, now+L, func(units.Time) { ran[1] = append(ran[1], "message") })
				c.Halt()
				c.Domain(0).Halt()
			})
			c.Domain(0).At(60, func(units.Time) { ran[0] = append(ran[0], "post-halt-own") })
			c.Domain(1).At(60, func(units.Time) { ran[1] = append(ran[1], "same-window-other") })
			c.Domain(1).At(500, func(units.Time) { ran[1] = append(ran[1], "later-window") })
			end := c.RunUntil(10_000)

			if want := []string{"halter"}; !reflect.DeepEqual(ran[0], want) {
				t.Fatalf("domain 0 ran %v, want %v", ran[0], want)
			}
			if want := []string{"same-window-other"}; !reflect.DeepEqual(ran[1], want) {
				t.Fatalf("domain 1 ran %v, want %v", ran[1], want)
			}
			if !c.halted.Load() {
				t.Fatal("cluster not halted")
			}
			if n0, n1 := c.engines[0].queue.len(), c.engines[1].queue.len(); n0 != 1 || n1 != 2 {
				t.Fatalf("domains hold %d and %d events after halt, want 1 and 2", n0, n1)
			}
			if end >= 10_000 {
				t.Fatalf("clock advanced to run bound after halt: %v", end)
			}
		})
	}
}

// TestClusterPanicStopsWorkers checks that a panic in an event on the
// calling goroutine (worker 0) unwinds RunUntil without leaving the
// other workers blocked: a runner recovers such panics and may retry,
// so a leak would pile up goroutines.
func TestClusterPanicStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	c, _ := NewCluster(10, 4)
	c.SetShards(4)
	for d := 1; d < 4; d++ {
		c.Domain(d).At(100, func(units.Time) {})
	}
	c.Domain(0).At(100, func(now units.Time) { c.Send(0, 1, now, func(units.Time) {}) })
	func() {
		defer func() {
			if _, ok := recover().(*CausalityError); !ok {
				t.Fatal("RunUntil did not panic with *CausalityError")
			}
		}()
		c.RunUntil(1000)
	}()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after the panic, %d before the run", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// clusterTrace is one domain's deterministic execution log.
type clusterTrace struct {
	entries []string
}

// runSynthetic drives a deterministic cross-domain ping workload on a
// fresh cluster and returns per-domain logs plus per-engine (steps,
// now) — the full observable outcome.
func runSynthetic(domains, shards int, seed uint64, until units.Time) ([]clusterTrace, []uint64, []units.Time) {
	const L = 16
	c, err := NewCluster(L, domains)
	if err != nil {
		panic(err)
	}
	c.SetShards(shards)
	traces := make([]clusterTrace, domains)
	for d := 0; d < domains; d++ {
		d := d
		rng := seed + uint64(d)*0x9e3779b97f4a7c15
		remaining := 400
		var step Event
		step = func(now units.Time) {
			rng = rng*6364136223846793005 + 1442695040888963407
			traces[d].entries = append(traces[d].entries, fmt.Sprintf("%d@%d:%x", d, now, rng>>48))
			if remaining == 0 {
				return
			}
			remaining--
			if rng%3 == 0 {
				dst := (d + 1 + int(rng>>32)%(domains-1)) % domains
				at := now + L + units.Time(rng%37)
				// The callback executes on dst's domain, so it logs into
				// dst's trace — logging into the sender's would race
				// under parallel shards.
				c.Send(d, dst, at, func(at units.Time) {
					traces[dst].entries = append(traces[dst].entries, fmt.Sprintf("sent-by-%d@%d", d, at))
				})
			}
			c.Domain(d).At(now+1+units.Time(rng%9), step)
		}
		c.Domain(d).AtNamed(units.Time(1+d), "synthetic", step)
	}
	c.RunUntil(until)
	steps := make([]uint64, domains)
	nows := make([]units.Time, domains)
	for d := 0; d < domains; d++ {
		steps[d] = c.Domain(d).nSteps
		nows[d] = c.Domain(d).Now()
	}
	return traces, steps, nows
}

// TestClusterDeterministicAcrossShards is the engine-level differential
// suite: one shard (every domain on the calling goroutine) must produce
// the exact same per-domain execution logs, step counts and clocks as
// every parallel shard count, at GOMAXPROCS 1 and N.
func TestClusterDeterministicAcrossShards(t *testing.T) {
	for _, domains := range []int{2, 4} {
		refTraces, refSteps, refNows := runSynthetic(domains, 1, 42, 4000)
		total := 0
		for _, tr := range refTraces {
			total += len(tr.entries)
		}
		if total < 400 {
			t.Fatalf("synthetic workload too small to be meaningful: %d entries", total)
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			for _, shards := range []int{0, 2, 3, domains} {
				traces, steps, nows := runSynthetic(domains, shards, 42, 4000)
				if !reflect.DeepEqual(traces, refTraces) {
					t.Fatalf("domains=%d shards=%d procs=%d: traces diverge from one shard", domains, shards, procs)
				}
				if !reflect.DeepEqual(steps, refSteps) || !reflect.DeepEqual(nows, refNows) {
					t.Fatalf("domains=%d shards=%d procs=%d: steps/clocks diverge: %v/%v vs %v/%v",
						domains, shards, procs, steps, nows, refSteps, refNows)
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// TestClusterSeedSweep re-runs the differential comparison across seeds
// so source-order delivery is exercised under many same-timestamp
// collision patterns.
func TestClusterSeedSweep(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		refTraces, _, _ := runSynthetic(3, 1, seed, 3000)
		traces, _, _ := runSynthetic(3, 3, seed, 3000)
		if !reflect.DeepEqual(traces, refTraces) {
			t.Fatalf("seed %d: parallel traces diverge from one shard", seed)
		}
	}
}

// TestClusterRunUntilAdvancesClocks checks the RunUntil contract: all
// non-halted domain clocks end at the bound even when idle.
func TestClusterRunUntilAdvancesClocks(t *testing.T) {
	c, _ := NewCluster(8, 3)
	c.Domain(1).At(10, func(units.Time) {})
	end := c.RunUntil(777)
	if end != 777 {
		t.Fatalf("end = %v, want 777", end)
	}
	for d := 0; d < 3; d++ {
		if now := c.Domain(d).Now(); now != 777 {
			t.Fatalf("domain %d clock = %v, want 777", d, now)
		}
	}
}
