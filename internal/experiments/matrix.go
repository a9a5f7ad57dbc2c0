package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/graph"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/runner"
	"coolpim/internal/system"
	"coolpim/internal/telemetry"
)

// Profile fixes the input graph and platform configuration of a
// full-system experiment campaign.
type Profile struct {
	Name       string
	Scale      int // RMAT scale (2^Scale vertices)
	EdgeFactor int
	Seed       int64
	// Reps sizes each workload (see kernels.NewSized).
	Reps int
	Sys  system.Config
}

// PaperProfile is the configuration the committed EXPERIMENTS.md numbers
// were produced with: a 65k-vertex / 524k-edge LDBC-like graph against
// caches scaled to keep the paper's property-to-L2 ratio (the simulated
// host sustains a fraction of the authors' absolute bandwidth; the
// platform power model is calibrated so the coupled operating points
// land on the paper's temperature map — see DESIGN.md §2 and
// EXPERIMENTS.md).
func PaperProfile() Profile {
	cfg := system.DefaultConfig()
	cfg.GPU.L2.SizeBytes = 64 << 10
	cfg.GPU.L1.SizeBytes = 8 << 10
	return Profile{
		Name:       "paper",
		Scale:      16,
		EdgeFactor: 8,
		Seed:       42,
		Reps:       2,
		Sys:        cfg,
	}
}

// FullProfile is a 4×-larger campaign (262k vertices / 2M edges) for
// longer thermal transients; expect tens of minutes of wall time on one
// core.
func FullProfile() Profile {
	p := PaperProfile()
	p.Name = "full"
	p.Scale = 18
	p.Sys.GPU.L2.SizeBytes = 128 << 10
	p.Reps = 3
	return p
}

// QuickProfile is a reduced campaign for fast exploration. Performance
// shapes hold; thermal effects are muted (lower absolute bandwidth).
func QuickProfile() Profile {
	p := PaperProfile()
	p.Name = "quick"
	p.Scale = 14
	p.Sys.GPU.L2.SizeBytes = 16 << 10
	p.Reps = 1
	return p
}

// TestProfile is sized for unit/integration tests (seconds).
func TestProfile() Profile {
	p := PaperProfile()
	p.Name = "test"
	p.Scale = 13
	p.EdgeFactor = 8
	// Keep the property-array-to-L2 ratio of the campaign profiles (see
	// ScaledConfig): a cache-resident property array would invert the
	// offloading economics even at test scale.
	p.Sys.GPU.L2.SizeBytes = 8 << 10
	p.Sys.GPU.L1.SizeBytes = 4 << 10
	p.Reps = 1
	return p
}

// Graph generates (and caches) the profile's input graph. Generation
// runs outside the cache lock — campaign-scale RMAT takes seconds, and
// parallel campaign workers on distinct profiles must not serialize on
// it — with a double-checked insertion so every caller of the same
// profile still shares one canonical *graph.Graph instance.
func (p Profile) Graph() *graph.Graph {
	key := fmt.Sprintf("%d/%d/%d", p.Scale, p.EdgeFactor, p.Seed)
	graphCache.Lock()
	g, ok := graphCache.m[key]
	graphCache.Unlock()
	if ok {
		return g
	}
	g = graph.GenRMAT(p.Scale, p.EdgeFactor, graph.LDBCLikeParams(), p.Seed)
	graphCache.Lock()
	defer graphCache.Unlock()
	if cached, ok := graphCache.m[key]; ok {
		// Another worker generated the same graph concurrently; keep the
		// first-inserted instance as the canonical one.
		return cached
	}
	graphCache.m[key] = g
	return g
}

var graphCache = struct {
	sync.Mutex
	m map[string]*graph.Graph
}{m: map[string]*graph.Graph{}}

// Row holds one workload's results across all five configurations.
type Row struct {
	Workload string
	Results  map[core.PolicyKind]*system.Result
}

// Speedup returns the Fig. 10 speedup of a policy over non-offloading.
func (r Row) Speedup(k core.PolicyKind) float64 {
	base := r.Results[core.NonOffloading]
	res := r.Results[k]
	if base == nil || res == nil {
		return math.NaN()
	}
	return res.Speedup(base)
}

// NormBW returns the Fig. 11 normalized bandwidth of a policy.
func (r Row) NormBW(k core.PolicyKind) float64 {
	base := r.Results[core.NonOffloading]
	res := r.Results[k]
	if base == nil || res == nil {
		return math.NaN()
	}
	return res.NormalizedBW(base)
}

// MatrixOpts configures a campaign beyond the profile. The zero value
// runs the full matrix serially, to completion, with no deadline, retry
// or ledger.
type MatrixOpts struct {
	// Workloads and Policies select the matrix cells; empty means the
	// full paper matrix (kernels.Names() × core.Kinds()).
	Workloads []string
	Policies  []core.PolicyKind
	// Parallel bounds the worker pool (each run is single-threaded and
	// deterministic; < 1 means 1).
	Parallel int
	// Timeout is the per-attempt wall-clock deadline (0 = none).
	Timeout time.Duration
	// Retries and Backoff bound the deterministic retry of retryable
	// failures (see runner.Config).
	Retries int
	Backoff time.Duration
	// FailFast stops dispatching new runs after the first failure; the
	// default runs the matrix to completion, which also makes the
	// aggregated error fully deterministic.
	FailFast bool
	// Ledger enables checkpoint/resume: completed (workload, policy,
	// profile-hash) cells are loaded instead of re-run.
	Ledger *runner.Ledger
	// Telemetry receives campaign-level metrics (per-run wall timing,
	// queue depth); it is distinct from the per-run Sys.Telemetry hook.
	Telemetry *telemetry.Telemetry
	// FlightDir, if non-empty, gives every cell its own flight recorder
	// (riding a per-cell telemetry when Sys.Telemetry is nil); a cell
	// that panics or blows its deadline dumps the recorder's last
	// events to <FlightDir>/<key>.flight.jsonl for post-mortem.
	FlightDir string
	// Progress, if non-nil, receives one line per completed run, on the
	// caller's goroutine.
	Progress func(string)
	// OnRunStart and OnRunDone observe scheduling: OnRunStart fires
	// from worker goroutines (concurrently) as each attempt begins;
	// OnRunDone fires on the caller's goroutine, after the run's ledger
	// entry is durable, in completion order.
	OnRunStart func(key string, attempt int)
	OnRunDone  func(key string, err error, fromLedger bool)
}

// workloadCtor constructs one sized workload instance.
type workloadCtor func(name string, reps int) (kernels.Workload, error)

// newSized constructs workloads; indirected so tests can inject failing
// or panicking constructors into the campaign path. A campaign reads it
// once, before dispatch: an attempt the runner abandons may still be
// running when a test restores it.
var newSized workloadCtor = kernels.NewSized

// MultiCubeProfile derives a multi-cube variant of a base profile: the
// same graph and platform with `net` cubes joined by its link topology,
// one workload replica per node. The derived name (e.g.
// "paper-4xchain") keeps ledgers and result files distinct from the
// single-cube campaign's.
func MultiCubeProfile(base Profile, net hmc.NetworkConfig) Profile {
	p := base
	p.Sys.Net = net
	if net.Enabled() {
		p.Name = fmt.Sprintf("%s-%dx%s", base.Name, net.Cubes, net.Topology)
	}
	return p
}

// runCell executes one campaign cell: one workload replica per cube
// node (a single node unless the profile configures a multi-cube
// network).
func runCell(newW workloadCtor, p Profile, wl string, pol core.PolicyKind, sys system.Config, g *graph.Graph) (*system.Result, error) {
	ws := make([]kernels.Workload, sys.Net.Nodes())
	for i := range ws {
		w, err := newW(wl, p.Reps)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return system.RunWorkloads(ws, pol, sys, g)
}

// matrixKey names one campaign cell in errors, ledgers and hooks.
func matrixKey(wl string, pol core.PolicyKind) string { return wl + "/" + pol.String() }

// RunMatrixOpts executes the campaign matrix on the internal/runner
// orchestration layer. Results are keyed deterministically by matrix
// position; a failing matrix returns a *runner.CampaignError listing
// every failure in canonical (workload, policy) order regardless of
// completion order, and a panicking run surfaces as a
// *runner.RunPanicError instead of wedging the pool.
//
// Each cell's result keeps its time series (Fig. 14 plots three of
// them), and the ledger records it, so fresh and ledger-resumed rows
// are identical.
//
// Every workload's naive cell is dispatched first. Its CoolPIM(SW),
// CoolPIM(HW) and IdealThermal cells wait for that naive outcome and,
// when system.DeriveInert proves the policy inert on it, relabel it
// instead of simulating (DESIGN.md §10a). Derived cells are still
// runner jobs: hooks, ledger entries, retries, rows and the error's
// matrix order are those of a fully simulated campaign.
func RunMatrixOpts(ctx context.Context, p Profile, o MatrixOpts) ([]Row, error) {
	workloads := o.Workloads
	if len(workloads) == 0 {
		workloads = kernels.Names()
	}
	policies := o.Policies
	if len(policies) == 0 {
		policies = core.Kinds()
	}
	g := p.Graph()
	hash, err := p.ConfigHash()
	if err != nil {
		return nil, err
	}
	newW := newSized

	// pos is each cell's matrix position; jobs run naive cells first.
	pos := make(map[string]int, len(workloads)*len(policies))
	var naiveJobs, otherJobs []runner.Job[*system.Result]
	hasNaive := slices.Contains(policies, core.NaiveOffloading)
	for _, wl := range workloads {
		var naive *naiveOutcome
		if hasNaive {
			naive = &naiveOutcome{done: make(chan struct{})}
		}
		for _, pol := range policies {
			wl, pol := wl, pol
			key := matrixKey(wl, pol)
			pos[key] = len(pos)
			var flight *telemetry.FlightRecorder
			if o.FlightDir != "" {
				flight = telemetry.NewFlightRecorder(0)
			}
			var derived atomic.Bool
			job := runner.Job[*system.Result]{
				Key:    key,
				Flight: flight,
				Run: func(ctx context.Context) (*system.Result, error) {
					if naive != nil && derivable(pol) {
						select {
						case <-naive.done:
						case <-ctx.Done():
						}
						if err := ctx.Err(); err != nil {
							return nil, err
						}
						if res, ok := deriveCell(newW, p, wl, pol, naive.res); ok {
							derived.Store(true)
							return res, nil
						}
					}
					sys := p.Sys
					if flight != nil && sys.Telemetry == nil {
						tel := telemetry.New()
						tel.Flight = flight
						sys.Telemetry = tel
					}
					res, err := runCell(newW, p, wl, pol, sys, g)
					if err != nil {
						return nil, err
					}
					if res.VerifyErr != nil {
						return nil, fmt.Errorf("verification: %w", res.VerifyErr)
					}
					return res, nil
				},
				Done: func(r runner.Result[*system.Result]) {
					if naive != nil && pol == core.NaiveOffloading {
						if r.Err == nil {
							naive.res = r.Value
						}
						close(naive.done)
					}
					if o.Progress != nil && r.Err == nil {
						src := ""
						switch {
						case r.FromLedger:
							src = "  (ledger)"
						case derived.Load():
							src = "  (derived)"
						}
						o.Progress(fmt.Sprintf("%-10s %-18v rt=%v pim=%v peak=%v%s",
							wl, pol, r.Value.Runtime, r.Value.AvgPIMRate, r.Value.PeakDRAM, src))
					}
					if o.OnRunDone != nil {
						o.OnRunDone(r.Key, r.Err, r.FromLedger)
					}
				},
			}
			if pol == core.NaiveOffloading {
				naiveJobs = append(naiveJobs, job)
			} else {
				otherJobs = append(otherJobs, job)
			}
		}
	}
	jobs := append(naiveJobs, otherJobs...)

	results, err := runner.Run(ctx, runner.Config{
		Parallel:   o.Parallel,
		Timeout:    o.Timeout,
		Retries:    o.Retries,
		Backoff:    o.Backoff,
		FailFast:   o.FailFast,
		Ledger:     o.Ledger,
		ConfigHash: hash,
		OnStart:    o.OnRunStart,
		Telemetry:  o.Telemetry,
		FlightDir:  o.FlightDir,
	}, jobs)
	if err != nil {
		var ce *runner.CampaignError
		if errors.As(err, &ce) {
			sort.SliceStable(ce.Failures, func(a, b int) bool {
				return pos[ce.Failures[a].Key] < pos[ce.Failures[b].Key]
			})
		}
		return nil, err
	}

	values := make([]*system.Result, len(results))
	for _, r := range results {
		values[pos[r.Key]] = r.Value
	}
	rows := make([]Row, 0, len(workloads))
	i := 0
	for _, wl := range workloads {
		row := Row{Workload: wl, Results: make(map[core.PolicyKind]*system.Result, len(policies))}
		for _, pol := range policies {
			row.Results[pol] = values[i]
			i++
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// naiveOutcome is a workload's naive cell outcome, published by its
// Done callback: done closes once the outcome is final, and res is its
// result, nil if the cell failed.
type naiveOutcome struct {
	done chan struct{}
	res  *system.Result
}

// derivable reports whether a policy's cell may derive from its
// workload's naive cell.
func derivable(pol core.PolicyKind) bool {
	return pol == core.CoolPIMSW || pol == core.CoolPIMHW || pol == core.IdealThermal
}

// deriveCell relabels a successful naive cell result as pol's, if pol
// is inert on it. Only the caller's Sys configuration counts: per-cell
// flight recorders never stop a derivation.
func deriveCell(newW workloadCtor, p Profile, wl string, pol core.PolicyKind, naive *system.Result) (*system.Result, bool) {
	if naive == nil {
		return nil, false
	}
	w, err := newW(wl, p.Reps)
	if err != nil {
		return nil, false
	}
	return system.DeriveInert(naive, pol, p.Sys, w.Profile())
}

// ConfigHash fingerprints everything about the profile that determines
// a run's outcome — graph parameters, workload sizing and the full
// system configuration — excluding the run-scoped Telemetry hook and
// the engine shard count, which never affect results (DESIGN.md §12).
// Ledger entries recorded under a different hash are re-run on resume
// instead of silently reused.
func (p Profile) ConfigHash() (string, error) {
	q := p
	q.Sys.Telemetry = nil
	q.Sys.Net.Shards = 0
	h, err := runner.HashConfig(q)
	if err != nil {
		return "", fmt.Errorf("experiments: hashing profile %s: %w", p.Name, err)
	}
	return h, nil
}

// GeoMean returns the geometric mean of the per-workload values produced
// by f, skipping NaNs.
func GeoMean(rows []Row, f func(Row) float64) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		v := f(r)
		if math.IsNaN(v) || v <= 0 {
			continue
		}
		sum += math.Log(v)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}

// Fig14Workload is the workload Fig. 14 plots under naive, SW and HW
// control. The paper plots bfs-ta; on this platform bfs-ta's naive rate
// stays below the thermal threshold, so the committed results use
// sssp-twc, which shows the paper's dynamics (see EXPERIMENTS.md).
const Fig14Workload = "sssp-twc"

// SortedPolicies returns the canonical presentation order restricted to
// the keys present in a row.
func SortedPolicies(r Row) []core.PolicyKind {
	var ks []core.PolicyKind
	for k := range r.Results {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// ScaledConfig returns the evaluation platform with caches scaled to a
// graph of the given RMAT scale, preserving the paper's
// property-array-to-L2 ratio (the LDBC property arrays dwarf the 1 MB
// L2; a cache-resident property array would erase the offloading
// economics the paper studies). Use it whenever running graphs smaller
// than the campaign profiles'.
func ScaledConfig(scale int) system.Config {
	cfg := system.DefaultConfig()
	property := 4 << scale // one 32-bit word per vertex
	l2 := property / 4
	if l2 < 8<<10 {
		l2 = 8 << 10
	}
	if l2 > 1<<20 {
		l2 = 1 << 20
	}
	l1 := l2 / 8
	if l1 < 4<<10 {
		l1 = 4 << 10
	}
	if l1 > 16<<10 {
		l1 = 16 << 10
	}
	cfg.GPU.L2.SizeBytes = l2
	cfg.GPU.L1.SizeBytes = l1
	return cfg
}
