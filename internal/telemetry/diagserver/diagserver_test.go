package diagserver_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/graph"
	"coolpim/internal/system"
	"coolpim/internal/telemetry"
	"coolpim/internal/telemetry/diagserver"
)

var diagGraph = graph.GenRMAT(11, 8, graph.LDBCLikeParams(), 7)

// runExports runs one small simulation and returns its deterministic
// telemetry exports (the span and instant stream, metrics) as bytes.
func runExports(t *testing.T, sink telemetry.SnapshotSink) (stream, metrics []byte) {
	t.Helper()
	cfg := system.DefaultConfig()
	cfg.GPU.L2.SizeBytes = 8 << 10
	cfg.GPU.L1.SizeBytes = 4 << 10
	tel := telemetry.New()
	tel.Flight = telemetry.NewFlightRecorder(0)
	tel.Spans.SetWallClock(func() int64 { return time.Now().UnixNano() })
	tel.Sink = sink
	cfg.Telemetry = tel
	res, err := system.Run("dc", core.CoolPIMHW, cfg, diagGraph)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Fatal(res.VerifyErr)
	}
	var sp, me bytes.Buffer
	if err := tel.Spans.WriteJSONL(&sp); err != nil {
		t.Fatal(err)
	}
	if err := tel.Registry.WritePrometheus(&me); err != nil {
		t.Fatal(err)
	}
	return sp.Bytes(), me.Bytes()
}

// TestServerDoesNotPerturbSimulation is the acceptance gate for the
// diag server: running the same seeded simulation with the HTTP server
// attached — and clients hammering it concurrently — must produce
// byte-identical span-and-instant stream and metrics exports to a
// serverless run.
// Run with -race to also exercise the snapshot publication path.
func TestServerDoesNotPerturbSimulation(t *testing.T) {
	baseStream, baseMetrics := runExports(t, nil)

	srv, err := diagserver.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/spans", "/healthz"} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					return // server closed
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(fmt.Sprintf("http://%s%s", srv.Addr(), path))
	}

	gotStream, gotMetrics := runExports(t, srv)
	close(stop)
	wg.Wait()

	if !bytes.Equal(baseStream, gotStream) {
		t.Error("span and instant stream diverged with diag server attached")
	}
	if !bytes.Equal(baseMetrics, gotMetrics) {
		t.Error("metrics export diverged with diag server attached")
	}
}

func TestEndpoints(t *testing.T) {
	srv, err := diagserver.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Before the first publish: healthz is up, data endpoints are 503.
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz = %d %s", code, body)
	}
	if code, _ := get("/metrics"); code != http.StatusServiceUnavailable {
		t.Fatalf("/metrics before publish = %d, want 503", code)
	}
	if code, _ := get("/spans"); code != http.StatusServiceUnavailable {
		t.Fatalf("/spans before publish = %d, want 503", code)
	}

	// Publish a snapshot and watch the endpoints light up.
	tel := telemetry.New()
	tel.RunID = "test-run"
	tel.Registry.Counter("pings_total", "test counter").Add(3)
	sp := tel.Spans.StartRoot(0, tel.Spans.Name("engine.run"))
	sp.End(1000)
	tel.Sink = srv
	tel.Publish(5000)

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "pings_total 3") {
		t.Fatalf("/metrics = %d %s", code, body)
	}
	code, body := get("/spans")
	if code != http.StatusOK {
		t.Fatalf("/spans = %d %s", code, body)
	}
	var rows []map[string]any
	if err := json.Unmarshal([]byte(body), &rows); err != nil || len(rows) != 1 {
		t.Fatalf("/spans body invalid (%v): %s", err, body)
	}
	if rows[0]["name"] != "engine.run" {
		t.Fatalf("/spans row = %v", rows[0])
	}
	if _, body := get("/healthz"); !strings.Contains(body, `"run_id":"test-run"`) {
		t.Fatalf("/healthz missing run id: %s", body)
	}

	// Run table.
	srv.Runs().Started("dc/coolpim-hw", 0)
	srv.Runs().Finished("dc/coolpim-hw", nil, false, 5*time.Millisecond)
	srv.Runs().Started("dc/baseline", 0)
	srv.Runs().Finished("dc/baseline", errors.New("boom"), false, time.Millisecond)
	if code, body := get("/runs"); code != http.StatusOK ||
		!strings.Contains(body, `"state":"ok"`) || !strings.Contains(body, `"state":"failed"`) {
		t.Fatalf("/runs = %d %s", code, body)
	}

	// pprof index responds (the profiling endpoints are wired).
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d, want 200", code)
	}
}
