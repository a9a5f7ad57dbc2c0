package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/experiments"
	"coolpim/internal/graph"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/system"
)

// workload is one benchmark workload: a campaign matrix on a profile,
// run as a closed loop of `workers` runner workers.
type workload struct {
	name      string
	workloads []string
	policies  []core.PolicyKind
	workers   int
	// threads is the host threads one cell occupies (engine shards).
	threads int
	profile func(seed int64) experiments.Profile
}

var workloadList = []workload{
	{
		name:      "matrix-test",
		workloads: kernels.Names(),
		policies:  core.Kinds(),
		workers:   2,
		threads:   1,
		profile: func(seed int64) experiments.Profile {
			p := experiments.TestProfile()
			p.Seed = seed
			return p
		},
	},
	{
		name:      "throttle-paper",
		workloads: []string{"sssp-twc"},
		policies:  []core.PolicyKind{core.NaiveOffloading, core.CoolPIMSW, core.CoolPIMHW},
		workers:   2,
		threads:   1,
		profile: func(seed int64) experiments.Profile {
			p := experiments.PaperProfile()
			p.Seed = seed
			return p
		},
	},
	{
		name:      "multicube-net",
		workloads: []string{"sssp-twc"},
		policies:  []core.PolicyKind{core.CoolPIMHW},
		workers:   1,
		threads:   2,
		profile: func(seed int64) experiments.Profile {
			p := experiments.TestProfile()
			p.Seed = seed
			p.Sys.ThermalMode = system.ThermalAdaptive
			net := hmc.DefaultNetworkConfig()
			net.Cubes = 4
			net.Topology = hmc.TopoChain
			net.Shards = 2
			return experiments.MultiCubeProfile(p, net)
		},
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// cellKey names a cell the way the campaign runner does.
func cellKey(wl string, pol core.PolicyKind) string { return wl + "/" + pol.String() }

// setup is one timed set-up: the work a campaign does before its first
// dispatch (RMAT generation and the profile's ConfigHash).
type setup struct {
	wall, cpu float64 // seconds
	gen       float64 // wall seconds of the RMAT generation alone
}

// timeSetup generates the profile's graph and hashes the profile. The
// first call goes through Profile.Graph, so the campaigns that follow
// reuse its cached graph; later calls regenerate it from scratch. CPU
// time excludes the host probe's own.
func timeSetup(p experiments.Profile, first bool, probe *hostProbe) (setup, *graph.Graph, error) {
	t0 := time.Now()
	c0 := processCPU() - probe.cpuUsed()
	var g *graph.Graph
	if first {
		g = p.Graph()
	} else {
		g = graph.GenRMAT(p.Scale, p.EdgeFactor, graph.LDBCLikeParams(), p.Seed)
	}
	gen := time.Since(t0).Seconds()
	if _, err := p.ConfigHash(); err != nil {
		return setup{}, nil, err
	}
	cpu := processCPU() - probe.cpuUsed() - c0
	return setup{wall: time.Since(t0).Seconds(), cpu: cpu, gen: gen}, g, nil
}

// cellOutcome is one cell of one campaign repetition.
type cellOutcome struct {
	key    string
	pol    core.PolicyKind
	wallS  float64
	res    *system.Result
	err    error
	digest string
}

// repetition is one untraced campaign run.
type repetition struct {
	wallS float64 // first dispatch to last completion
	cells []cellOutcome
	err   error // the campaign's aggregate error, if any
}

// runCampaign runs the workload's matrix once through RunMatrixOpts,
// timing every cell from the runner's start/done hooks.
func runCampaign(w workload, p experiments.Profile) repetition {
	var mu sync.Mutex
	starts := map[string]time.Time{}
	walls := map[string]float64{}
	errs := map[string]error{}
	var first, last time.Time
	rows, err := experiments.RunMatrixOpts(context.Background(), p, experiments.MatrixOpts{
		Workloads: w.workloads,
		Policies:  w.policies,
		Parallel:  w.workers,
		OnRunStart: func(key string, _ int) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			if first.IsZero() {
				first = now
			}
			starts[key] = now
		},
		OnRunDone: func(key string, err error, _ bool) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			last = now
			walls[key] = now.Sub(starts[key]).Seconds()
			if err != nil {
				errs[key] = err
			}
		},
	})
	rep := repetition{wallS: last.Sub(first).Seconds(), err: err}
	results := map[string]*system.Result{}
	for _, row := range rows {
		for pol, r := range row.Results {
			results[cellKey(row.Workload, pol)] = r
		}
	}
	for _, wl := range w.workloads {
		for _, pol := range w.policies {
			key := cellKey(wl, pol)
			c := cellOutcome{key: key, pol: pol, wallS: walls[key], res: results[key], err: errs[key]}
			if c.err == nil && c.res == nil {
				c.err = fmt.Errorf("no result (campaign error: %v)", err)
			}
			rep.cells = append(rep.cells, c)
		}
	}
	return rep
}

// checker applies the output check to cell outcomes: no error, no
// verification failure, no thermal shutdown under a controller, the
// pinned digest under the default seed, and the same digest on every
// repetition.
type checker struct {
	workload string
	seed     int64
	seen     map[string]string
	failures []string
}

func newChecker(workload string, seed int64) *checker {
	return &checker{workload: workload, seed: seed, seen: map[string]string{}}
}

// check fills c.digest and reports whether the cell passed.
func (k *checker) check(c *cellOutcome) bool {
	fail := func(format string, a ...any) bool {
		k.failures = append(k.failures, c.key+": "+fmt.Sprintf(format, a...))
		return false
	}
	if c.err != nil {
		return fail("%v", c.err)
	}
	if c.res.VerifyErr != nil {
		return fail("verification: %v", c.res.VerifyErr)
	}
	// Without a thermal controller a hot graph can drive the DRAM past its
	// shutdown limit: the outcome CoolPIM exists to prevent, and a valid
	// simulated result (its digest is still checked). Under a controller,
	// or with thermal effects disabled, a shutdown is a failure.
	if c.res.Shutdown && c.pol != core.NonOffloading && c.pol != core.NaiveOffloading {
		return fail("unexpected thermal shutdown at %v", c.res.Runtime)
	}
	c.digest = digest(c.res)
	if prev, ok := k.seen[c.key]; ok && prev != c.digest {
		return fail("digest %s differs from an earlier repetition's %s", c.digest, prev)
	}
	k.seen[c.key] = c.digest
	if k.seed == defaultSeed {
		want, ok := pinned[k.workload+"/"+c.key]
		if !ok {
			return fail("no pinned digest")
		}
		if want != c.digest {
			return fail("digest %s, pinned %s", c.digest, want)
		}
	}
	return true
}

// pinnedLines renders the seen digests as Go map entries for digest.go.
func (k *checker) pinnedLines() []string {
	var out []string
	for key, d := range k.seen {
		out = append(out, fmt.Sprintf("\t%q: %q,", k.workload+"/"+key, d))
	}
	sort.Strings(out)
	return out
}
