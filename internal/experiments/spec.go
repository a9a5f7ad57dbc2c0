package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/system"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// CampaignSpec is the serializable description of one simulation
// campaign: everything the front ends (coolpim-sim, coolpim-sweep,
// cmd/figures, coolpim-serve) need to reconstruct the same Profile,
// MatrixOpts and hmc.NetworkConfig. It is the single source of truth
// for validation — every front end rejects a bad spec identically —
// and for result identity: CacheKey fingerprints exactly the fields
// that determine simulation outcomes (the ResultSpec), so every
// request for the same science names the same campaign.
//
// The zero value of every field means "use the default"; Normalized
// makes those defaults explicit. Durations are carried as integer
// nanosecond counts so the JSON form round-trips exactly and the spec
// loses no precision against the time.Duration CLI flags.
type CampaignSpec struct {
	// Profile selects a named platform profile (see ProfileNames).
	// Leave it empty to describe the graph explicitly via Scale /
	// EdgeFactor / Seed / Reps with caches scaled by ScaledConfig —
	// the coolpim-sim construction. The two forms are mutually
	// exclusive.
	Profile    string `json:"profile,omitempty"`
	Scale      int    `json:"scale,omitempty"`
	EdgeFactor int    `json:"edge_factor,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Reps       int    `json:"reps,omitempty"`

	// Workloads and Policies select the matrix cells, in report order;
	// empty means the full paper matrix (kernels.Names() × core.Kinds()).
	Workloads []string `json:"workloads,omitempty"`
	Policies  []string `json:"policies,omitempty"`

	// Cooling overrides the profile's cooling solution ("" keeps it).
	Cooling string `json:"cooling,omitempty"`
	// ThermalMode selects the coupling tier ("" = exact).
	ThermalMode string `json:"thermal_mode,omitempty"`

	// Multi-cube network (Cubes 0 or 1 = single cube).
	Cubes         int    `json:"cubes,omitempty"`
	Topology      string `json:"topology,omitempty"`
	LinkLatencyNs int64  `json:"link_latency_ns,omitempty"`
	// Shards partitions the multi-cube event engine; it is proven not
	// to affect results (see DESIGN.md §12) and is excluded from the
	// ResultSpec along with the execution knobs below.
	Shards int `json:"shards,omitempty"`

	// Execution knobs: how the campaign runs, never what it computes.
	Parallel       int   `json:"parallel,omitempty"` // 0 = all CPUs
	TimeoutNs      int64 `json:"timeout_ns,omitempty"`
	Retries        int   `json:"retries,omitempty"`
	BackoffNs      int64 `json:"backoff_ns,omitempty"`
	FailFast       bool  `json:"fail_fast,omitempty"`
	InterruptAfter int   `json:"interrupt_after,omitempty"` // test hook
}

// ProfileByName resolves a named platform profile.
func ProfileByName(name string) (Profile, bool) {
	switch name {
	case "paper":
		return PaperProfile(), true
	case "full":
		return FullProfile(), true
	case "quick":
		return QuickProfile(), true
	case "test":
		return TestProfile(), true
	}
	return Profile{}, false
}

// ProfileNames lists the named profiles in documentation order.
func ProfileNames() []string { return []string{"paper", "full", "quick", "test"} }

// Normalized returns a copy with every "use the default" zero value
// made explicit, so two specs that mean the same campaign serialize
// identically. JSON cannot distinguish an absent field from an
// explicit zero, so zero always means the default — negative values
// are how Validate rejects nonsense.
func (s CampaignSpec) Normalized() CampaignSpec {
	n := s
	if n.ThermalMode == "" {
		n.ThermalMode = "exact"
	}
	if n.Cubes == 0 {
		n.Cubes = 1
	}
	if n.Topology == "" {
		n.Topology = "chain"
	}
	if n.Parallel == 0 {
		n.Parallel = runtime.NumCPU()
	}
	return n
}

// Validate rejects specs no front end can run: unknown names, mixed
// profile/explicit-graph forms, and negative counts or durations that
// the legacy flag parsing silently accepted. It is shared by the CLIs
// (exit 2) and the HTTP server (400), so a spec rejected in one place
// is rejected everywhere. Zero values are valid — they mean defaults
// — so Validate may be called on either a raw or a Normalized spec.
func (s CampaignSpec) Validate() error {
	if s.Profile == "" && s.Scale == 0 {
		return fmt.Errorf("spec: one of profile or scale is required")
	}
	if s.Profile != "" {
		if _, ok := ProfileByName(s.Profile); !ok {
			return fmt.Errorf("spec: unknown profile %q (known: %s)", s.Profile, strings.Join(ProfileNames(), ", "))
		}
		if s.Scale != 0 || s.EdgeFactor != 0 || s.Seed != 0 || s.Reps != 0 {
			return fmt.Errorf("spec: profile %q cannot be combined with explicit graph parameters (scale/edge_factor/seed/reps)", s.Profile)
		}
	} else {
		if s.Scale <= 0 {
			return fmt.Errorf("spec: scale must be positive (got %d)", s.Scale)
		}
		if s.EdgeFactor <= 0 {
			return fmt.Errorf("spec: edge_factor must be positive (got %d)", s.EdgeFactor)
		}
		if s.Reps <= 0 {
			return fmt.Errorf("spec: reps must be positive (got %d)", s.Reps)
		}
	}
	known := kernels.Names()
	for _, wl := range s.Workloads {
		found := false
		for _, k := range known {
			if wl == k {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("spec: unknown workload %q (known: %s)", wl, strings.Join(known, ", "))
		}
	}
	for _, name := range s.Policies {
		if _, err := core.ParsePolicy(name); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
	}
	if s.Cooling != "" {
		if _, err := thermal.ParseCooling(s.Cooling); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
	}
	if s.ThermalMode != "" {
		if _, err := system.ParseThermalMode(s.ThermalMode); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
	}
	if s.LinkLatencyNs < 0 {
		return fmt.Errorf("spec: link_latency_ns must be non-negative (got %d)", s.LinkLatencyNs)
	}
	n := s.Normalized()
	if _, err := hmc.FlagConfig(n.Cubes, n.Topology,
		units.FromNanoseconds(float64(n.LinkLatencyNs)), n.Shards); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if s.Parallel < 0 {
		return fmt.Errorf("spec: parallel must be non-negative (got %d; 0 means all CPUs)", s.Parallel)
	}
	if s.TimeoutNs < 0 {
		return fmt.Errorf("spec: timeout_ns must be non-negative (got %d)", s.TimeoutNs)
	}
	if s.Retries < 0 {
		return fmt.Errorf("spec: retries must be non-negative (got %d)", s.Retries)
	}
	if s.BackoffNs < 0 {
		return fmt.Errorf("spec: backoff_ns must be non-negative (got %d)", s.BackoffNs)
	}
	if s.InterruptAfter < 0 {
		return fmt.Errorf("spec: interrupt_after must be non-negative (got %d)", s.InterruptAfter)
	}
	return nil
}

// CanonicalJSON is the spec's canonical serialized form: the
// Normalized spec marshaled with the fixed field order above. Two
// specs describing the same campaign produce byte-identical canonical
// JSON, and unmarshalling it yields the Normalized spec back
// (round-trip property; pinned by tests).
func (s CampaignSpec) CanonicalJSON() ([]byte, error) {
	b, err := json.Marshal(s.Normalized())
	if err != nil {
		return nil, fmt.Errorf("spec: canonical marshal: %w", err)
	}
	return b, nil
}

// ResultSpec is the Normalized spec reduced to what determines result
// bytes: the execution-only knobs — Parallel, TimeoutNs, Retries,
// BackoffNs, FailFast, InterruptAfter — and Shards are zeroed, since
// none of them affect outcomes. Result documents embed it, so they do
// not depend on how the first requester ran the campaign.
func (s CampaignSpec) ResultSpec() CampaignSpec {
	n := s.Normalized()
	n.Parallel = 0
	n.TimeoutNs = 0
	n.Retries = 0
	n.BackoffNs = 0
	n.FailFast = false
	n.InterruptAfter = 0
	n.Shards = 0
	return n
}

// CacheKey is the full sha256 (hex) of the ResultSpec's JSON: the
// campaign's identity. Two requests with equal keys may share one
// simulation and one result; the key is also machine-independent (the
// Parallel = NumCPU normalization is erased).
func (s CampaignSpec) CacheKey() (string, error) {
	b, err := json.Marshal(s.ResultSpec())
	if err != nil {
		return "", fmt.Errorf("spec: cache key marshal: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// BuildProfile reconstructs the experiment Profile the legacy front
// ends built by hand, in the same order: resolve the base platform,
// apply the cooling override, fold in the thermal-coupling tier
// (part of the profile hash, so ledgers never cross tiers), then
// derive the multi-cube variant (part of the profile name and hash,
// so single-cube ledgers never resume into multi-cube campaigns).
func (s CampaignSpec) BuildProfile() (Profile, error) {
	if err := s.Validate(); err != nil {
		return Profile{}, err
	}
	n := s.Normalized()
	var prof Profile
	if n.Profile != "" {
		prof, _ = ProfileByName(n.Profile)
	} else {
		prof = Profile{
			Name:       fmt.Sprintf("scale%d", n.Scale),
			Scale:      n.Scale,
			EdgeFactor: n.EdgeFactor,
			Seed:       n.Seed,
			Reps:       n.Reps,
			Sys:        ScaledConfig(n.Scale),
		}
	}
	if n.Cooling != "" {
		cool, err := thermal.ParseCooling(n.Cooling)
		if err != nil {
			return Profile{}, err
		}
		prof.Sys.Cooling = cool
	}
	mode, err := system.ParseThermalMode(n.ThermalMode)
	if err != nil {
		return Profile{}, err
	}
	prof.Sys.ThermalMode = mode
	net, err := hmc.FlagConfig(n.Cubes, n.Topology,
		units.FromNanoseconds(float64(n.LinkLatencyNs)), n.Shards)
	if err != nil {
		return Profile{}, err
	}
	return MultiCubeProfile(prof, net), nil
}

// ParsedPolicies converts the spec's policy names ([]string — the
// JSON-friendly form) to policy kinds.
func (s CampaignSpec) ParsedPolicies() ([]core.PolicyKind, error) {
	var pols []core.PolicyKind
	for _, name := range s.Policies {
		pol, err := core.ParsePolicy(name)
		if err != nil {
			return nil, err
		}
		pols = append(pols, pol)
	}
	return pols, nil
}

// BuildMatrixOpts maps the spec's matrix selection and execution
// knobs onto MatrixOpts. Ledger, Telemetry, FlightDir and the
// progress hooks are runtime wiring, not campaign description — the
// caller attaches them to the returned value.
func (s CampaignSpec) BuildMatrixOpts() (MatrixOpts, error) {
	n := s.Normalized()
	pols, err := n.ParsedPolicies()
	if err != nil {
		return MatrixOpts{}, err
	}
	return MatrixOpts{
		Workloads: n.Workloads,
		Policies:  pols,
		Parallel:  n.Parallel,
		Timeout:   time.Duration(n.TimeoutNs),
		Retries:   n.Retries,
		Backoff:   time.Duration(n.BackoffNs),
		FailFast:  n.FailFast,
	}, nil
}
