package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

const runKey = "a3f8c2d9e1b4a3f8c2d9e1b4a3f8c2d9e1b4a3f8c2d9e1b4a3f8c2d9e1b4aabb"

// await blocks until r resolves and returns its result and error.
func await(r *run) ([]byte, error) {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.result, r.err
}

// TestRegistryJoinsOneRunUnderContention is the join guarantee the
// service rests on: many concurrent requests for one key create the
// run once, every other request joins it, and everyone gets the same
// bytes.
func TestRegistryJoinsOneRunUnderContention(t *testing.T) {
	g := newRegistry()
	const clients = 16
	var executions atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]byte, clients)
	joined := make([]bool, clients)
	runs := make([]*run, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, created := g.getOrCreate(runKey, "tenant")
			if created {
				executions.Add(1)
				<-release // hold the run open so joiners pile up
				r.finish([]byte(`{"answer":42}`), nil)
			}
			data, err := await(r)
			if err != nil {
				t.Error(err)
			}
			results[i], joined[i], runs[i] = data, !created, r
		}(i)
	}
	close(release)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("run created %d times, want exactly 1", n)
	}
	njoined := 0
	for i := range results {
		if runs[i] != runs[0] {
			t.Fatalf("client %d got a different run", i)
		}
		if !bytes.Equal(results[i], results[0]) || string(results[i]) != `{"answer":42}` {
			t.Fatalf("result %d differs: %s vs %s", i, results[i], results[0])
		}
		if joined[i] {
			njoined++
		}
	}
	if njoined != clients-1 {
		t.Fatalf("%d joins, want %d (everyone but the executor)", njoined, clients-1)
	}
}

// TestRegistryReplacesFailedRun: a failed run is not kept as the key's
// result; the next request creates a fresh run, and once that one
// succeeds it is the join point.
func TestRegistryReplacesFailedRun(t *testing.T) {
	g := newRegistry()
	boom := errors.New("solver diverged")
	r1, created := g.getOrCreate(runKey, "tenant")
	if !created {
		t.Fatal("first request did not create the run")
	}
	r1.finish(nil, boom)
	if _, err := await(r1); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}

	r2, created := g.getOrCreate(runKey, "tenant")
	if !created || r2 == r1 {
		t.Fatalf("retry after failure joined the failed run (created=%v)", created)
	}
	r2.finish([]byte(`{}`), nil)
	if data, err := await(r2); err != nil || string(data) != `{}` {
		t.Fatalf("retry after failure: data=%s err=%v", data, err)
	}

	r3, created := g.getOrCreate(runKey, "tenant")
	if created || r3 != r2 {
		t.Fatalf("request after success did not join the successful run (created=%v)", created)
	}
	if got, ok := g.get(runKey); !ok || got != r2 {
		t.Fatal("registry does not hold the successful run")
	}
}

// TestRegistryManyKeysConcurrently: 64 requests over 8 keys create
// exactly one run per key, and every request gets its own key's
// result.
func TestRegistryManyKeysConcurrently(t *testing.T) {
	g := newRegistry()
	var executions atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := fmt.Sprintf("key%02d", i%8)
			r, created := g.getOrCreate(k, "tenant")
			if created {
				executions.Add(1)
				r.finish([]byte(fmt.Sprintf(`{"k":%q}`, k)), nil)
			}
			data, err := await(r)
			if err != nil {
				t.Error(err)
			}
			if want := fmt.Sprintf(`{"k":%q}`, k); string(data) != want {
				t.Errorf("key %s returned %s", k, data)
			}
		}(i)
	}
	wg.Wait()
	if n := executions.Load(); n != 8 {
		t.Fatalf("%d runs created, want 8", n)
	}
	g.mu.Lock()
	n := len(g.m)
	g.mu.Unlock()
	if n != 8 {
		t.Fatalf("registry holds %d runs, want 8", n)
	}
}
