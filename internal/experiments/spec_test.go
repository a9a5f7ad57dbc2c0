package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/hmc"
	"coolpim/internal/system"
	"coolpim/internal/units"
)

// TestSpecValidate is the shared-validation table (satellite S2): the
// nonsense values the legacy flag parsing silently accepted must now be
// rejected, identically, by every front end that calls Validate.
func TestSpecValidate(t *testing.T) {
	valid := CampaignSpec{Profile: "test", Workloads: []string{"dc"}, Policies: []string{"baseline"}}
	cases := []struct {
		name    string
		mutate  func(*CampaignSpec)
		wantErr string // "" = valid
	}{
		{"baseline valid", func(*CampaignSpec) {}, ""},
		{"empty spec", func(s *CampaignSpec) { *s = CampaignSpec{} }, "one of profile or scale"},
		{"unknown profile", func(s *CampaignSpec) { s.Profile = "huge" }, `unknown profile "huge"`},
		{"profile plus explicit graph", func(s *CampaignSpec) { s.Scale = 14 }, "cannot be combined"},
		{"explicit graph valid", func(s *CampaignSpec) {
			*s = CampaignSpec{Scale: 13, EdgeFactor: 8, Seed: 42, Reps: 1}
		}, ""},
		{"explicit graph bad edge factor", func(s *CampaignSpec) {
			*s = CampaignSpec{Scale: 13, EdgeFactor: -1, Reps: 1}
		}, "edge_factor must be positive"},
		{"explicit graph zero reps", func(s *CampaignSpec) {
			*s = CampaignSpec{Scale: 13, EdgeFactor: 8}
		}, "reps must be positive"},
		{"unknown workload", func(s *CampaignSpec) { s.Workloads = []string{"dc", "mining"} }, `unknown workload "mining"`},
		{"unknown policy", func(s *CampaignSpec) { s.Policies = []string{"overclock"} }, "overclock"},
		{"unknown cooling", func(s *CampaignSpec) { s.Cooling = "liquid-helium" }, "liquid-helium"},
		{"unknown thermal mode", func(s *CampaignSpec) { s.ThermalMode = "sloppy" }, "sloppy"},
		{"negative link latency", func(s *CampaignSpec) { s.LinkLatencyNs = -1 }, "link_latency_ns"},
		{"negative cubes", func(s *CampaignSpec) { s.Cubes = -4 }, "cube count"},
		{"unknown topology", func(s *CampaignSpec) { s.Cubes = 4; s.Topology = "torus" }, "torus"},
		{"ring needs three cubes", func(s *CampaignSpec) { s.Cubes = 2; s.Topology = "ring" }, "ring"},
		{"negative shards", func(s *CampaignSpec) { s.Cubes = 2; s.Shards = -1 }, "shard"},
		// The S2 trio: nonsensical -parallel / -retries / -interrupt-after.
		{"negative parallel", func(s *CampaignSpec) { s.Parallel = -5 }, "parallel must be non-negative"},
		{"zero parallel is auto", func(s *CampaignSpec) { s.Parallel = 0 }, ""},
		{"negative retries", func(s *CampaignSpec) { s.Retries = -1 }, "retries must be non-negative"},
		{"negative interrupt-after", func(s *CampaignSpec) { s.InterruptAfter = -2 }, "interrupt_after must be non-negative"},
		{"negative timeout", func(s *CampaignSpec) { s.TimeoutNs = -1 }, "timeout_ns"},
		{"negative backoff", func(s *CampaignSpec) { s.BackoffNs = -1 }, "backoff_ns"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid
			s.Workloads = append([]string(nil), valid.Workloads...)
			s.Policies = append([]string(nil), valid.Policies...)
			tc.mutate(&s)
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want ok", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestSpecCanonicalJSONRoundTrip pins the canonical-form property: the
// canonical JSON of a spec unmarshals back to its Normalized form, and
// two spellings of the same campaign serialize byte-identically.
func TestSpecCanonicalJSONRoundTrip(t *testing.T) {
	s := CampaignSpec{Profile: "test", Workloads: []string{"dc", "pagerank"}, Policies: []string{"baseline", "coolpim-hw"},
		Cubes: 4, Topology: "chain", Retries: 2, BackoffNs: int64(time.Second)}
	b, err := s.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back CampaignSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s.Normalized()) {
		t.Fatalf("round trip drifted:\n  canonical %s\n  back      %+v\n  want      %+v", b, back, s.Normalized())
	}

	// Defaults spelled out vs left implicit: same canonical bytes.
	implicit := CampaignSpec{Profile: "test"}
	explicit := CampaignSpec{Profile: "test", Cubes: 1, Topology: "chain", ThermalMode: "exact"}
	bi, err := implicit.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	be, err := explicit.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(bi) != string(be) {
		t.Fatalf("equivalent specs canonicalized differently:\n  %s\n  %s", bi, be)
	}
}

// TestSpecCacheKeyIgnoresExecutionKnobs pins the cache-key contract:
// knobs that change how a campaign runs (parallelism, retries,
// timeouts, fail-fast, the interrupt test hook, engine shards) never
// change the key, while anything that changes what is simulated does.
func TestSpecCacheKeyIgnoresExecutionKnobs(t *testing.T) {
	base := CampaignSpec{Profile: "test", Workloads: []string{"dc"}, Policies: []string{"baseline"}}
	k0, err := base.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if len(k0) != 64 {
		t.Fatalf("cache key %q is not a full sha256 hex digest", k0)
	}

	same := []func(*CampaignSpec){
		func(s *CampaignSpec) { s.Parallel = 7 },
		func(s *CampaignSpec) { s.TimeoutNs = int64(time.Minute) },
		func(s *CampaignSpec) { s.Retries = 3 },
		func(s *CampaignSpec) { s.BackoffNs = int64(5 * time.Second) },
		func(s *CampaignSpec) { s.FailFast = true },
		func(s *CampaignSpec) { s.InterruptAfter = 1 },
		func(s *CampaignSpec) { s.ThermalMode = "exact" }, // normalization default, spelled out
	}
	for i, mut := range same {
		s := base
		mut(&s)
		k, err := s.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if k != k0 {
			t.Errorf("execution knob %d changed the cache key", i)
		}
	}
	// Shards is execution-only too (DESIGN.md §11 proves shard-count
	// invariance), but it needs a multi-cube base to be meaningful.
	multi := CampaignSpec{Profile: "test", Cubes: 4}
	mk, err := multi.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	sharded := multi
	sharded.Shards = 2
	if sk, _ := sharded.CacheKey(); sk != mk {
		t.Error("shard count changed the cache key")
	}
	if mk == k0 {
		t.Error("cube count did not change the cache key")
	}

	different := []func(*CampaignSpec){
		func(s *CampaignSpec) { s.Profile = "quick" },
		func(s *CampaignSpec) { s.Workloads = []string{"pagerank"} },
		func(s *CampaignSpec) { s.Policies = []string{"coolpim-hw"} },
		func(s *CampaignSpec) { s.Cooling = "high-end" },
		func(s *CampaignSpec) { s.ThermalMode = "adaptive" },
		func(s *CampaignSpec) { s.Cubes = 2 },
		func(s *CampaignSpec) { s.LinkLatencyNs = 100 },
	}
	for i, mut := range different {
		s := base
		mut(&s)
		k, err := s.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if k == k0 {
			t.Errorf("result-relevant field %d did not change the cache key", i)
		}
	}
}

// TestSpecBuildProfileMatchesLegacyConstruction pins hash parity with
// the hand-rolled construction the front ends used before the spec
// refactor (copied here verbatim): same profile, same hash, so every
// pre-existing resume ledger stays valid.
func TestSpecBuildProfileMatchesLegacyConstruction(t *testing.T) {
	legacy := func(name string, thermalMode string,
		cubes int, topology string, linkLatency time.Duration, shards int) Profile {
		prof, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		mode, err := system.ParseThermalMode(thermalMode)
		if err != nil {
			t.Fatal(err)
		}
		prof.Sys.ThermalMode = mode
		net, err := hmc.FlagConfig(cubes, topology,
			units.FromNanoseconds(float64(linkLatency.Nanoseconds())), shards)
		if err != nil {
			t.Fatal(err)
		}
		return MultiCubeProfile(prof, net)
	}

	cases := []struct {
		name string
		spec CampaignSpec
		want Profile
	}{
		{"defaults", CampaignSpec{Profile: "paper"},
			legacy("paper", "exact", 1, "chain", 0, 0)},
		{"adaptive knobs", CampaignSpec{Profile: "quick", ThermalMode: "adaptive"},
			legacy("quick", "adaptive", 1, "chain", 0, 0)},
		{"multi-cube", CampaignSpec{Profile: "test", Cubes: 4, Topology: "ring", LinkLatencyNs: int64(40 * time.Nanosecond), Shards: 2},
			legacy("test", "exact", 4, "ring", 40*time.Nanosecond, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.spec.BuildProfile()
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != tc.want.Name {
				t.Fatalf("profile name %q, want %q", got.Name, tc.want.Name)
			}
			gh, err := got.ConfigHash()
			if err != nil {
				t.Fatal(err)
			}
			wh, err := tc.want.ConfigHash()
			if err != nil {
				t.Fatal(err)
			}
			if gh != wh {
				t.Fatalf("config hash drifted from legacy construction: %s vs %s", gh, wh)
			}
		})
	}
}

// TestSpecBuildMatrixOpts pins the exec-knob mapping, including the
// parallel=0 → NumCPU normalization matching the legacy flag default.
func TestSpecBuildMatrixOpts(t *testing.T) {
	s := CampaignSpec{Profile: "test", Workloads: []string{"dc", "pagerank"}, Policies: []string{"baseline", "naive"},
		Parallel: 3, TimeoutNs: int64(time.Minute), Retries: 2, BackoffNs: int64(250 * time.Millisecond), FailFast: true}
	o, err := s.BuildMatrixOpts()
	if err != nil {
		t.Fatal(err)
	}
	wantPols := []core.PolicyKind{core.NonOffloading, core.NaiveOffloading}
	if !reflect.DeepEqual(o.Workloads, s.Workloads) || !reflect.DeepEqual(o.Policies, wantPols) {
		t.Fatalf("matrix selection drifted: %+v", o)
	}
	if o.Parallel != 3 || o.Timeout != time.Minute || o.Retries != 2 || o.Backoff != 250*time.Millisecond || !o.FailFast {
		t.Fatalf("exec knobs drifted: %+v", o)
	}
	auto, err := CampaignSpec{Profile: "test"}.BuildMatrixOpts()
	if err != nil {
		t.Fatal(err)
	}
	if auto.Parallel < 1 {
		t.Fatalf("parallel=0 should normalize to all CPUs, got %d", auto.Parallel)
	}
}
