// Package serve is the simulation-as-a-service layer: an HTTP/JSON
// front end that accepts experiments.CampaignSpec documents, schedules
// them on the fault-tolerant runner, streams per-cell progress, and
// keeps every result in one store, the run ledger (internal/runner).
//
// The contract: POSTing the same campaign twice returns byte-identical
// results, and the second request never simulates. It joins the run in
// flight or finished in this process (the registry, keyed by the spec's
// CacheKey); after a restart, the campaign/<id> record the finished run
// appended to the ledger rebuilds the run from the ledger's cells.
// Admission control bounds how many campaigns simulate at once
// (per-tenant FIFO queues drained round-robin, 429 + Retry-After past
// the queue limit); joins and recorded campaigns bypass it.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/experiments"
	"coolpim/internal/runner"
	"coolpim/internal/system"
	"coolpim/internal/telemetry"
)

// maxSpecBytes bounds the request body; campaign specs are small JSON
// documents, so anything bigger is garbage or abuse.
const maxSpecBytes = 1 << 20

// campaignPrefix prefixes a campaign's CacheKey to name its ledger
// record, apart from the "workload/policy" cell keys.
const campaignPrefix = "campaign/"

// RunFunc executes one campaign and returns the response payload
// (JSON). progress receives one call per completed matrix cell. The
// server's default RunFunc runs real simulations; tests inject stubs.
type RunFunc func(ctx context.Context, spec experiments.CampaignSpec, progress func(cell string, fromLedger bool, errMsg string)) ([]byte, error)

// Config configures a Server.
type Config struct {
	// LedgerPath is the JSONL run ledger, the server's only store
	// (required; opened with resume): the cells and campaign records of
	// every earlier campaign under the same profile hash are reused
	// instead of re-simulated, even across server restarts.
	LedgerPath string
	// MaxInflight bounds concurrently executing campaigns (< 1 = 1).
	MaxInflight int
	// MaxQueue bounds queued campaigns across all tenants; an arrival
	// past the limit is rejected with 429 + Retry-After.
	MaxQueue int
	// runFn overrides campaign execution (tests); nil runs real
	// simulations via experiments.RunMatrixOpts.
	runFn RunFunc
}

// Server is the HTTP simulation service. Construct with New, mount
// Handler, Close when done.
type Server struct {
	ledger *runner.Ledger
	adm    *admission
	runs   *registry
	runFn  RunFunc
	reg    *telemetry.Registry

	requests   atomic.Int64 // campaign submissions (POST /v1/runs)
	rejected   atomic.Int64 // 429 responses
	hits       atomic.Int64 // submissions that joined a run or named a recorded campaign
	misses     atomic.Int64 // submissions that started a new run
	inflight   atomic.Int64 // runs executing now
	executions atomic.Int64 // new runs that completed
	failures   atomic.Int64 // runs that failed
}

// New builds a Server over cfg.
func New(cfg Config) (*Server, error) {
	if cfg.LedgerPath == "" {
		return nil, errors.New("serve: a ledger path is required")
	}
	// Always resume: the ledger is the server's cross-restart memory,
	// and profile hashing already guards against reusing entries from
	// a different configuration.
	l, err := runner.OpenLedger(cfg.LedgerPath, true)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ledger: l,
		adm:    newAdmission(cfg.MaxInflight, cfg.MaxQueue),
		runs:   newRegistry(),
		runFn:  cfg.runFn,
	}
	if s.runFn == nil {
		s.runFn = s.runCampaign
	}

	// The registry holds only callback-backed metrics over atomics, so
	// it is immutable after this block and safe for concurrent scrapes.
	reg := telemetry.NewRegistry()
	load := func(v *atomic.Int64) func() float64 {
		return func() float64 { return float64(v.Load()) }
	}
	reg.CounterFunc("coolpim_cache_hits_total",
		"Submissions served without a new run (joins and recorded campaigns).", load(&s.hits))
	reg.CounterFunc("coolpim_cache_misses_total",
		"Submissions that had to execute their campaign.", load(&s.misses))
	reg.GaugeFunc("coolpim_cache_inflight",
		"Campaign executions currently in flight.", load(&s.inflight))
	reg.CounterFunc("coolpim_campaigns_executed_total",
		"Campaigns that simulated to completion.", load(&s.executions))
	reg.CounterFunc("coolpim_campaigns_failed_total",
		"Campaigns whose execution failed.", load(&s.failures))
	reg.CounterFunc("coolpim_requests_total",
		"Campaign submissions received.", load(&s.requests))
	reg.CounterFunc("coolpim_rejected_total",
		"Submissions rejected by admission control (HTTP 429).", load(&s.rejected))
	reg.GaugeFunc("coolpim_admission_queue_depth",
		"Campaigns waiting for an execution slot.",
		func() float64 { return float64(s.adm.depth()) })
	s.reg = reg
	return s, nil
}

// Close releases the server's resources (the shared ledger).
func (s *Server) Close() error { return s.ledger.Close() }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleSubmit is POST /v1/runs: validate the spec, join or start its
// run, and either return the payload (sync, the default) or a 202
// pointing at the status endpoint (?async=1).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var spec experiments.CampaignSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "body: "+err.Error())
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := spec.CacheKey()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}

	_, recorded := s.recorded(key)
	rn, hit := s.start(key, spec, tenant, recorded)
	cache, count := "miss", &s.misses
	if hit {
		cache, count = "hit", &s.hits
	}
	count.Add(1)
	if r.URL.Query().Get("async") == "1" {
		state, _, _, _ := rn.snapshot()
		w.Header().Set("Location", "/v1/runs/"+key)
		writeJSON(w, http.StatusAccepted, statusDoc{ID: key, State: state})
		return
	}

	<-rn.done
	if rn.err != nil {
		var over ErrOverloaded
		if errors.As(rn.err, &over) {
			s.rejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int(over.RetryAfter/time.Second)))
			writeError(w, http.StatusTooManyRequests, rn.err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, rn.err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.Header().Set("X-Run-Id", key)
	w.Write(rn.result)
}

// start returns the run for campaign key, starting it unless a run is
// in flight or finished in this process. A recorded campaign is rebuilt
// from the ledger's cells without an admission slot. hit reports that
// the caller triggers no simulation: it joined a run, or the campaign
// is recorded.
func (s *Server) start(key string, spec experiments.CampaignSpec, tenant string, recorded bool) (rn *run, hit bool) {
	rn, created := s.runs.getOrCreate(key, tenant)
	if created {
		//coolpim:allow determinism harness run execution: the campaign itself is internally deterministic; this goroutine only detaches it from the HTTP request
		go s.execute(rn, spec, recorded)
	}
	return rn, !created || recorded
}

// execute runs rn to completion under the background context: a
// client disconnect must not kill a run other requests share.
func (s *Server) execute(rn *run, spec experiments.CampaignSpec, recorded bool) {
	s.inflight.Add(1)
	data, err := s.produce(rn, spec, recorded)
	s.inflight.Add(-1)
	if err != nil {
		s.failures.Add(1)
	} else if !recorded {
		s.executions.Add(1)
	}
	rn.finish(data, err)
}

// produce computes rn's payload. A new campaign takes an admission
// slot and, on success, appends its campaign record; a recorded one
// only reads the ledger.
func (s *Server) produce(rn *run, spec experiments.CampaignSpec, recorded bool) ([]byte, error) {
	if !recorded {
		release, err := s.adm.acquire(rn.tenant)
		if err != nil {
			return nil, err
		}
		t0 := time.Now() //coolpim:allow determinism harness wall-clock campaign timing for the Retry-After estimate; never feeds simulated state
		defer func() {
			release(time.Since(t0)) //coolpim:allow determinism harness wall-clock campaign timing for the Retry-After estimate; never feeds simulated state
		}()
	}
	rn.emit(StateRunning, "", false, "")
	data, err := s.runFn(context.Background(), spec, func(cell string, fromLedger bool, errMsg string) {
		rn.emit("", cell, fromLedger, errMsg)
	})
	if err == nil && !recorded {
		err = s.record(rn.id, spec)
	}
	return data, err
}

// record appends campaign id's ledger record: its ResultSpec under its
// profile hash.
func (s *Server) record(id string, spec experiments.CampaignSpec) error {
	hash, err := profileHash(spec)
	if err != nil {
		return err
	}
	b, err := json.Marshal(spec.ResultSpec())
	if err != nil {
		return err
	}
	return s.ledger.Append(runner.Entry{Key: campaignPrefix + id, ConfigHash: hash, Status: runner.StatusOK, Ok: true, Result: b})
}

// recorded returns the spec of campaign id when the ledger holds its
// record under the profile hash this build computes for that spec. A
// record from a build whose profile differs is not a hit, and one
// whose spec does not hash to id is foreign.
func (s *Server) recorded(id string) (experiments.CampaignSpec, bool) {
	for _, e := range s.ledger.Entries(campaignPrefix + id) {
		var spec experiments.CampaignSpec
		if json.Unmarshal(e.Result, &spec) != nil {
			continue
		}
		hash, herr := profileHash(spec)
		key, kerr := spec.CacheKey()
		if herr == nil && kerr == nil && hash == e.ConfigHash && key == id {
			return spec, true
		}
	}
	return experiments.CampaignSpec{}, false
}

// profileHash is the ConfigHash of the profile spec builds.
func profileHash(spec experiments.CampaignSpec) (string, error) {
	prof, err := spec.BuildProfile()
	if err != nil {
		return "", err
	}
	return prof.ConfigHash()
}

// runCampaign is the real RunFunc: build the profile and runner options
// from the spec, attach the shared resume ledger and the progress hook,
// simulate, and marshal the result document.
func (s *Server) runCampaign(ctx context.Context, spec experiments.CampaignSpec, progress func(cell string, fromLedger bool, errMsg string)) ([]byte, error) {
	prof, err := spec.BuildProfile()
	if err != nil {
		return nil, err
	}
	opts, err := spec.BuildMatrixOpts()
	if err != nil {
		return nil, err
	}
	opts.Ledger = s.ledger
	opts.OnRunDone = func(cell string, err error, fromLedger bool) {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		progress(cell, fromLedger, msg)
	}
	rows, err := experiments.RunMatrixOpts(ctx, prof, opts)
	if err != nil {
		return nil, err
	}
	return marshalResult(spec, prof, rows)
}

// resultDoc is the response payload of a completed campaign. Maps are
// keyed by the CLI policy spellings; encoding/json sorts map keys, and
// Spec is the ResultSpec, so the document depends only on the
// campaign's identity and is byte-identical across joins and restarts.
type resultDoc struct {
	Profile      string                   `json:"profile"`
	ConfigHash   string                   `json:"config_hash"`
	Spec         experiments.CampaignSpec `json:"spec"`
	Rows         []resultRow              `json:"rows"`
	GmeanSpeedup map[string]float64       `json:"gmean_speedup,omitempty"`
}

type resultRow struct {
	Workload string                    `json:"workload"`
	Results  map[string]*system.Result `json:"results"`
	Speedup  map[string]float64        `json:"speedup,omitempty"`
}

func marshalResult(spec experiments.CampaignSpec, prof experiments.Profile, rows []experiments.Row) ([]byte, error) {
	hash, err := prof.ConfigHash()
	if err != nil {
		return nil, err
	}
	doc := resultDoc{
		Profile:    prof.Name,
		ConfigHash: hash,
		Spec:       spec.ResultSpec(),
		Rows:       make([]resultRow, 0, len(rows)),
	}
	var pols []core.PolicyKind
	if len(rows) > 0 {
		pols = experiments.SortedPolicies(rows[0])
	}
	for _, r := range rows {
		row := resultRow{Workload: r.Workload, Results: make(map[string]*system.Result, len(r.Results))}
		for _, p := range pols {
			res := r.Results[p]
			if res == nil {
				continue
			}
			row.Results[policyName(p)] = res
			// Speedup is NaN without a baseline column; NaN is not
			// representable in JSON, so it is simply omitted.
			if sp := r.Speedup(p); !math.IsNaN(sp) && !math.IsInf(sp, 0) {
				if row.Speedup == nil {
					row.Speedup = make(map[string]float64)
				}
				row.Speedup[policyName(p)] = sp
			}
		}
		doc.Rows = append(doc.Rows, row)
	}
	for _, p := range pols {
		p := p
		g := experiments.GeoMean(rows, func(r experiments.Row) float64 { return r.Speedup(p) })
		if math.IsNaN(g) || math.IsInf(g, 0) {
			continue
		}
		if doc.GmeanSpeedup == nil {
			doc.GmeanSpeedup = make(map[string]float64)
		}
		doc.GmeanSpeedup[policyName(p)] = g
	}
	return json.Marshal(doc)
}

// policyName maps a PolicyKind back to its CLI spelling ("baseline",
// "coolpim-hw", ...), the vocabulary specs are written in.
func policyName(k core.PolicyKind) string {
	for _, n := range core.PolicyNames() {
		if p, err := core.ParsePolicy(n); err == nil && p == k {
			return n
		}
	}
	return k.String()
}

// statusDoc is the GET /v1/runs/{id} response (and the 202 body).
type statusDoc struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Events int             `json:"events,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// handleStatus is GET /v1/runs/{id}: a point-in-time status document,
// or — with ?watch=1 — a chunked JSONL stream of progress events that
// closes after the terminal event.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	watch := r.URL.Query().Get("watch") == "1"
	rn, ok := s.runs.get(id)
	if !ok {
		// Not in this process's registry, but possibly recorded by an
		// earlier incarnation: rebuild the run from the ledger.
		spec, recorded := s.recorded(id)
		if !recorded {
			writeError(w, http.StatusNotFound, "unknown run "+id)
			return
		}
		rn, _ = s.start(id, spec, "default", true)
		if !watch {
			<-rn.done
		}
	}
	if watch {
		s.watch(w, r, rn)
		return
	}
	state, result, errMsg, events := rn.snapshot()
	doc := statusDoc{ID: id, State: state, Events: events, Error: errMsg}
	if state == StateDone {
		doc.Result = result
	}
	writeJSON(w, http.StatusOK, doc)
}

// watch streams a run's events as JSONL until the run finishes or the
// client goes away. The backlog replays first, so a late watcher sees
// the full history; the synthesized tail event covers the case where
// the fan-out dropped the terminal event on a slow subscriber.
func (s *Server) watch(w http.ResponseWriter, req *http.Request, rn *run) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	backlog, ch, cancel := rn.subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, e := range backlog {
		enc.Encode(e)
		if terminal(e) {
			fl.Flush()
			return
		}
	}
	fl.Flush()
	for {
		select {
		case e := <-ch:
			enc.Encode(e)
			fl.Flush()
			if terminal(e) {
				return
			}
		case <-req.Context().Done():
			return
		case <-rn.done:
			// Drain what the fan-out already queued, then synthesize the
			// terminal state if it was dropped.
			for {
				select {
				case e := <-ch:
					enc.Encode(e)
					fl.Flush()
					if terminal(e) {
						return
					}
				default:
					state, _, errMsg, events := rn.snapshot()
					enc.Encode(Event{Seq: events, State: state, Err: errMsg})
					fl.Flush()
					return
				}
			}
		}
	}
}

func terminal(e Event) bool { return e.State == StateDone || e.State == StateFailed }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
