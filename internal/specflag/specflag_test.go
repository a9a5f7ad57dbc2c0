package specflag

import (
	"flag"
	"runtime"
	"strconv"
	"testing"
	"time"

	"coolpim/internal/experiments"
	"coolpim/internal/hmc"
	"coolpim/internal/runner"
	"coolpim/internal/system"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// legacySweepProfile is the pre-refactor cmd/coolpim-sweep profile
// construction, copied verbatim (modulo error plumbing). The parity
// tests below pin that a spec built from the same flag values produces
// a profile with the identical config hash — the property that keeps
// every pre-existing resume ledger valid across the refactor.
func legacySweepProfile(t *testing.T, profileName, thermalMode string,
	cubes int, topology string, linkLatency time.Duration, shards int) experiments.Profile {
	t.Helper()
	prof, ok := experiments.ProfileByName(profileName)
	if !ok {
		t.Fatalf("unknown profile %q", profileName)
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
	return experiments.MultiCubeProfile(prof, net)
}

// legacySimConfig is the pre-refactor cmd/coolpim-sim system.Config
// construction, copied verbatim.
func legacySimConfig(t *testing.T, scale int, cooling, thermalMode string,
	cubes int, topology string, linkLatency time.Duration, shards int) system.Config {
	t.Helper()
	cool, err := thermal.ParseCooling(cooling)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := system.ParseThermalMode(thermalMode)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.ScaledConfig(scale)
	cfg.Cooling = cool
	cfg.ThermalMode = mode
	cfg.Net, err = hmc.FlagConfig(cubes, topology,
		units.FromNanoseconds(float64(linkLatency.Nanoseconds())), shards)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func sweepBinder(fs *flag.FlagSet) *Binder {
	b := New()
	b.Profile(fs)
	b.Matrix(fs)
	b.Runner(fs)
	b.Thermal(fs)
	b.Network(fs)
	return b
}

func simBinder(fs *flag.FlagSet) *Binder {
	b := New()
	b.SingleRun(fs)
	b.Cooling(fs)
	b.Thermal(fs)
	b.Network(fs)
	return b
}

// TestSweepFlagParity parses representative coolpim-sweep command
// lines through the binder and checks the resulting profile hash and
// matrix options against the legacy hand-rolled construction.
func TestSweepFlagParity(t *testing.T) {
	cases := []struct {
		name string
		argv []string
	}{
		{"defaults", nil},
		{"adaptive multi-cube", []string{
			"-profile", "test", "-thermal-mode", "adaptive", "-cubes", "4",
			"-topology", "ring", "-link-latency", "40ns", "-shards", "2",
		}},
		{"exec knobs", []string{
			"-profile", "quick", "-workloads", "dc,pagerank", "-policies", "baseline,naive",
			"-parallel", "3", "-timeout", "90s", "-retries", "2", "-backoff", "250ms", "-fail-fast",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
			b := sweepBinder(fs)
			if err := fs.Parse(tc.argv); err != nil {
				t.Fatal(err)
			}
			spec, err := b.Spec()
			if err != nil {
				t.Fatal(err)
			}
			prof, err := spec.BuildProfile()
			if err != nil {
				t.Fatal(err)
			}
			legacy := legacySweepProfile(t,
				fs.Lookup("profile").Value.String(),
				fs.Lookup("thermal-mode").Value.String(),
				mustInt(t, fs.Lookup("cubes").Value.String()),
				fs.Lookup("topology").Value.String(),
				mustDuration(t, fs.Lookup("link-latency").Value.String()),
				mustInt(t, fs.Lookup("shards").Value.String()))
			gh, err := prof.ConfigHash()
			if err != nil {
				t.Fatal(err)
			}
			lh, err := legacy.ConfigHash()
			if err != nil {
				t.Fatal(err)
			}
			if gh != lh || prof.Name != legacy.Name {
				t.Fatalf("spec profile (%s, %s) != legacy (%s, %s)", prof.Name, gh, legacy.Name, lh)
			}

			opts, err := spec.BuildMatrixOpts()
			if err != nil {
				t.Fatal(err)
			}
			wantParallel := mustInt(t, fs.Lookup("parallel").Value.String())
			if wantParallel == 0 {
				wantParallel = runtime.NumCPU()
			}
			if opts.Parallel != wantParallel ||
				opts.Timeout != mustDuration(t, fs.Lookup("timeout").Value.String()) ||
				opts.Retries != mustInt(t, fs.Lookup("retries").Value.String()) ||
				opts.Backoff != mustDuration(t, fs.Lookup("backoff").Value.String()) {
				t.Fatalf("matrix exec knobs drifted: %+v", opts)
			}
		})
	}
}

// TestSimFlagParity does the same for the coolpim-sim construction,
// comparing the full system.Config fingerprint.
func TestSimFlagParity(t *testing.T) {
	cases := []struct {
		name string
		argv []string
	}{
		{"defaults", nil},
		{"tuned", []string{
			"-workload", "pagerank", "-policy", "coolpim-sw", "-scale", "13", "-ef", "6",
			"-seed", "7", "-reps", "1", "-cooling", "high-end", "-thermal-mode", "adaptive",
			"-cubes", "2", "-link-latency", "25ns",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("sim", flag.ContinueOnError)
			b := simBinder(fs)
			if err := fs.Parse(tc.argv); err != nil {
				t.Fatal(err)
			}
			spec, err := b.Spec()
			if err != nil {
				t.Fatal(err)
			}
			prof, err := spec.BuildProfile()
			if err != nil {
				t.Fatal(err)
			}
			legacy := legacySimConfig(t,
				mustInt(t, fs.Lookup("scale").Value.String()),
				fs.Lookup("cooling").Value.String(),
				fs.Lookup("thermal-mode").Value.String(),
				mustInt(t, fs.Lookup("cubes").Value.String()),
				fs.Lookup("topology").Value.String(),
				mustDuration(t, fs.Lookup("link-latency").Value.String()),
				mustInt(t, fs.Lookup("shards").Value.String()))
			gh, err := runner.HashConfig(prof.Sys)
			if err != nil {
				t.Fatal(err)
			}
			lh, err := runner.HashConfig(legacy)
			if err != nil {
				t.Fatal(err)
			}
			if gh != lh {
				t.Fatalf("spec system config != legacy sim construction (%s vs %s)", gh, lh)
			}
			if prof.Scale != mustInt(t, fs.Lookup("scale").Value.String()) ||
				prof.EdgeFactor != mustInt(t, fs.Lookup("ef").Value.String()) ||
				prof.Reps != mustInt(t, fs.Lookup("reps").Value.String()) {
				t.Fatalf("graph parameters drifted: %+v", prof)
			}
			if len(spec.Workloads) != 1 || spec.Workloads[0] != fs.Lookup("workload").Value.String() {
				t.Fatalf("workload selection drifted: %v", spec.Workloads)
			}
		})
	}
}

// TestFlagDefaultsPinned pins every shared flag's default against the
// values the commands shipped with before the refactor — a changed
// default would silently change simulation results for existing users.
func TestFlagDefaultsPinned(t *testing.T) {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	b := New()
	b.Profile(fs)
	b.Matrix(fs)
	b.Runner(fs)
	b.Thermal(fs)
	b.Network(fs)
	want := map[string]string{
		"profile":         "paper",
		"workloads":       "",
		"policies":        "",
		"parallel":        strconv.Itoa(runtime.NumCPU()),
		"timeout":         "0s",
		"retries":         "0",
		"backoff":         "1s",
		"fail-fast":       "false",
		"interrupt-after": "0",
		"thermal-mode":    "exact",
		"cubes":           "1",
		"topology":        "chain",
		"link-latency":    "0s",
		"shards":          "0",
	}
	for name, def := range want {
		f := fs.Lookup(name)
		if f == nil {
			t.Errorf("flag -%s not registered", name)
			continue
		}
		if f.DefValue != def {
			t.Errorf("flag -%s default = %q, want %q", name, f.DefValue, def)
		}
	}

	sim := flag.NewFlagSet("sim", flag.ContinueOnError)
	sb := New()
	sb.SingleRun(sim)
	sb.Cooling(sim)
	for name, def := range map[string]string{
		"workload": "dc", "policy": "coolpim-hw", "scale": "16", "ef": "8",
		"seed": "42", "reps": "2", "cooling": "commodity",
	} {
		f := sim.Lookup(name)
		if f == nil {
			t.Errorf("flag -%s not registered", name)
			continue
		}
		if f.DefValue != def {
			t.Errorf("flag -%s default = %q, want %q", name, f.DefValue, def)
		}
	}
}

// TestBinderRejectsNonsense pins the S2 CLI behavior: a nonsensical
// flag value surfaces as a validation error from Spec (exit 2 in the
// commands), not as a silently clamped campaign.
func TestBinderRejectsNonsense(t *testing.T) {
	for _, argv := range [][]string{
		{"-parallel", "-5"},
		{"-retries", "-1"},
		{"-interrupt-after", "-2"},
		{"-profile", "huge"},
		{"-workloads", "dc,mining"},
		{"-policies", "overclock"},
		{"-cubes", "-4"},
	} {
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		b := sweepBinder(fs)
		if err := fs.Parse(argv); err != nil {
			t.Fatalf("%v: parse: %v", argv, err)
		}
		if _, err := b.Spec(); err == nil {
			t.Errorf("%v: Spec() accepted nonsense", argv)
		}
	}
}

func mustInt(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustDuration(t *testing.T, s string) time.Duration {
	t.Helper()
	v, err := time.ParseDuration(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
