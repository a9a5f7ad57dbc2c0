// Package specflag maps the CLI flag surface shared by the front ends
// (coolpim-sim, coolpim-sweep, cmd/figures, coolpim-serve) onto one
// experiments.CampaignSpec. Each front end registers only the groups it
// exposes — the flag names, defaults and help strings are defined here
// exactly once, so the same flag means the same thing everywhere and a
// spec built from flags is indistinguishable from one posted as JSON.
//
// Usage:
//
//	b := specflag.New()
//	b.Profile(flag.CommandLine)
//	b.Matrix(flag.CommandLine)
//	b.Runner(flag.CommandLine)
//	flag.Parse()
//	spec, err := b.Spec() // validated
package specflag

import (
	"flag"
	"runtime"
	"strings"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/experiments"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/thermal"
)

// Binder accumulates flag destinations and converts them into a
// validated CampaignSpec after flag parsing.
type Binder struct {
	profile string

	workloadsCSV string
	policiesCSV  string

	workload   string
	policy     string
	scale      int
	edgeFactor int
	seed       int64
	reps       int
	singleRun  bool

	cooling    string
	hasCooling bool

	thermalMode string

	cubes       int
	topology    string
	linkLatency time.Duration
	shards      int

	parallel       int
	timeout        time.Duration
	retries        int
	backoff        time.Duration
	failFast       bool
	interruptAfter int
	hasRunner      bool
}

// New returns an empty Binder; register the flag groups the command
// exposes, parse, then call Spec.
func New() *Binder { return &Binder{} }

// Profile registers -profile (named platform profiles).
func (b *Binder) Profile(fs *flag.FlagSet) {
	fs.StringVar(&b.profile, "profile", "paper", "system profile: "+strings.Join(experiments.ProfileNames(), ", "))
}

// Matrix registers the campaign cell selection: -workloads and
// -policies as comma-separated lists (empty = the full paper matrix).
func (b *Binder) Matrix(fs *flag.FlagSet) {
	fs.StringVar(&b.workloadsCSV, "workloads", "", "comma-separated workloads (default: full paper set)")
	fs.StringVar(&b.policiesCSV, "policies", "", "comma-separated policies: "+strings.Join(core.PolicyNames(), ", ")+" (default: all)")
}

// SingleRun registers the coolpim-sim cell selection — one -workload /
// -policy pair plus the explicit graph parameters (-scale, -ef, -seed,
// -reps) that replace a named profile.
func (b *Binder) SingleRun(fs *flag.FlagSet) {
	b.singleRun = true
	fs.StringVar(&b.workload, "workload", "dc", "workload: "+strings.Join(kernels.Names(), ", "))
	fs.StringVar(&b.policy, "policy", "coolpim-hw", "policy: "+strings.Join(core.PolicyNames(), ", "))
	fs.IntVar(&b.scale, "scale", 16, "RMAT graph scale (2^scale vertices)")
	fs.IntVar(&b.edgeFactor, "ef", 8, "edges per vertex")
	fs.Int64Var(&b.seed, "seed", 42, "graph seed")
	fs.IntVar(&b.reps, "reps", 2, "workload repetitions")
}

// Cooling registers -cooling (overrides the platform's cooling
// solution).
func (b *Binder) Cooling(fs *flag.FlagSet) {
	b.hasCooling = true
	fs.StringVar(&b.cooling, "cooling", "commodity", "cooling: "+strings.Join(thermal.CoolingNames(), ", "))
}

// Thermal registers the thermal-coupling tier: -thermal-mode.
func (b *Binder) Thermal(fs *flag.FlagSet) {
	fs.StringVar(&b.thermalMode, "thermal-mode", "exact", "thermal coupling tier: exact (bit-identical outputs) or adaptive (interval-based, epsilon-bounded, faster)")
}

// Network registers the multi-cube network knobs: -cubes, -topology,
// -link-latency, -shards.
func (b *Binder) Network(fs *flag.FlagSet) {
	fs.IntVar(&b.cubes, "cubes", 1, "number of HMC cubes per run (>1 networks them, one workload replica per cube)")
	fs.StringVar(&b.topology, "topology", "chain", "inter-cube link topology: "+strings.Join(hmc.TopologyNames(), ", "))
	fs.DurationVar(&b.linkLatency, "link-latency", 0, "per-hop inter-cube link latency, simulated time (0 = built-in default)")
	fs.IntVar(&b.shards, "shards", 0, "engine shards for multi-cube runs: 0 = one per cube, 1 = every cube on the calling goroutine")
}

// Runner registers the campaign execution knobs: -parallel, -timeout,
// -retries, -backoff, -fail-fast, -interrupt-after.
func (b *Binder) Runner(fs *flag.FlagSet) {
	b.hasRunner = true
	fs.IntVar(&b.parallel, "parallel", runtime.NumCPU(), "max concurrent runs (0 = all CPUs)")
	fs.DurationVar(&b.timeout, "timeout", 0, "per-run wall-clock deadline (0 = none)")
	fs.IntVar(&b.retries, "retries", 0, "retry budget per run (a run that exceeds -timeout or panics is not retried)")
	fs.DurationVar(&b.backoff, "backoff", time.Second, "base retry backoff (doubles per attempt)")
	fs.BoolVar(&b.failFast, "fail-fast", false, "stop dispatching new runs after the first failure")
	fs.IntVar(&b.interruptAfter, "interrupt-after", 0, "test hook: exit(3) after N executed runs, simulating a mid-campaign kill")
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// Spec converts the parsed flag values into a CampaignSpec and
// validates it; a flag combination no front end can run comes back as
// the same error the HTTP server would return for the equivalent JSON.
func (b *Binder) Spec() (experiments.CampaignSpec, error) {
	s := experiments.CampaignSpec{
		Profile:       b.profile,
		Workloads:     splitList(b.workloadsCSV),
		Policies:      splitList(b.policiesCSV),
		ThermalMode:   b.thermalMode,
		Cubes:         b.cubes,
		Topology:      b.topology,
		LinkLatencyNs: b.linkLatency.Nanoseconds(),
		Shards:        b.shards,
	}
	if b.singleRun {
		// coolpim-sim describes its graph explicitly; the profile field
		// stays empty and the single workload/policy become one-element
		// matrix selections.
		s.Profile = ""
		s.Scale = b.scale
		s.EdgeFactor = b.edgeFactor
		s.Seed = b.seed
		s.Reps = b.reps
		s.Workloads = []string{b.workload}
		s.Policies = []string{b.policy}
	}
	if b.hasCooling {
		s.Cooling = b.cooling
	}
	if b.hasRunner {
		s.Parallel = b.parallel
		s.TimeoutNs = b.timeout.Nanoseconds()
		s.Retries = b.retries
		s.BackoffNs = b.backoff.Nanoseconds()
		s.FailFast = b.failFast
		s.InterruptAfter = b.interruptAfter
	}
	if err := s.Validate(); err != nil {
		return experiments.CampaignSpec{}, err
	}
	return s, nil
}
