package experiments

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/system"
	"coolpim/internal/units"
)

// This file is the epsilon-bounded differential proof for the adaptive
// thermal tier (DESIGN.md §6c). The exact tier is pinned bit-identical
// to the reference model; the adaptive tier is instead pinned to stay
// within *stated figure-level tolerances* of the exact tier, so an
// accuracy regression fails CI the same way a performance regression
// does. The node-level max-|ΔT| bounds live next to the solvers
// (internal/thermal/fast_test.go, internal/system/adaptive_test.go);
// this layer asserts the quantities the paper's figures are actually
// decided by: runtimes/speedups (Fig. 10), offloaded-traffic volumes
// (Fig. 11–12), peak DRAM temperature (Fig. 13), and the closed-loop
// rate dynamics (Fig. 14).
//
// Why the bounds are relative, not zero: temperature feeds back into
// *timing*, not just throttling — DRAM operating phases derate the
// memory clock at 85 °C and 95 °C, so a degree of bounded thermal
// drift shifts phase-transition instants, which shifts request
// service times, which perturbs every downstream counter by a few
// parts in a hundred even for policies that never throttle. Runs that
// stay below the warning band have no such feedback and reproduce the
// exact tier's counters identically (the test-profile matrix pins
// several at measured-zero drift).

// AccuracyTolerance pins the figure-level bounds the adaptive tier
// must honor against the exact tier. The zero value is invalid; use
// DefaultAccuracyTolerance.
type AccuracyTolerance struct {
	// RuntimeRel bounds |Δruntime|/runtime_exact per matrix cell — the
	// Fig. 10 speedup denominator.
	RuntimeRel float64
	// PIMOpsRel bounds the relative delta in offloaded-operation
	// counts (the Fig. 11/12 numerators).
	PIMOpsRel float64
	// PeakDRAMAbs bounds |Δpeak DRAM| in °C (Fig. 13, and per sample
	// on the Fig. 14 series): solver epsilon plus one skip horizon of
	// reported-peak staleness at the worst settling slew.
	PeakDRAMAbs units.Celsius
	// ControlSlack bounds |Δcount| on the discrete controller actions
	// (DynT control updates, critical escalations): a bounded thermal
	// drift can move a threshold crossing across a tick boundary, but
	// never invent or lose more than a crossing's worth of actions.
	ControlSlack uint64
	// Fig. 14 series: sample counts may differ by the runtime drift's
	// worth of windows, per-policy mean PIM rate must agree within
	// MeanRateRel, and pool-size samples may disagree on at most
	// PoolMismatchMax samples (a control update landing one window
	// later shifts exactly the samples between the two instants).
	SampleCountSlack int
	MeanRateRel      float64
	PoolMismatchMax  int
}

// DefaultAccuracyTolerance is the committed accuracy contract of
// -thermal-mode=adaptive, asserted by TestAdaptiveMatrixWithinEpsilon
// (`make accuracy-check` runs it on the paper profile). Measured worst
// cases on the committed code, full paper matrix (50 cells): runtime
// 3.7 % (pagerank/CoolPIM-SW), PIM ops 2.1 % (sssp-dwc/CoolPIM-HW),
// cell peak drift 2.20 °C; Fig. 14 series: per-sample peak 0.77 °C,
// mean rate 0.48 %, sample count ±1, pool mismatches 0.
func DefaultAccuracyTolerance() AccuracyTolerance {
	return AccuracyTolerance{
		RuntimeRel:       0.05,
		PIMOpsRel:        0.03,
		PeakDRAMAbs:      2.5,
		ControlSlack:     1,
		SampleCountSlack: 1,
		MeanRateRel:      0.05,
		PoolMismatchMax:  4,
	}
}

// AccuracyCell holds one matrix cell's adaptive-vs-exact comparison.
type AccuracyCell struct {
	Workload string
	Policy   core.PolicyKind

	RuntimeRel  float64       // |Δruntime| / exact runtime
	PIMOpsRel   float64       // |ΔPIMOps| / max(1, exact PIMOps)
	PeakDRAMAbs units.Celsius // |Δpeak DRAM|

	// Exact/adaptive discrete controller counters.
	Controls [2]uint64
	Critical [2]uint64
	// Exact/adaptive warning-delivery counts. Only *presence* is
	// asserted: the count integrates time-above-threshold over a
	// trajectory hovering at the threshold, which is ill-conditioned —
	// a fraction of a degree of bounded drift legitimately moves it by
	// tens of percent. The conditioned consequences of warnings
	// (control updates, runtime, offload volume) carry the contract.
	Warnings [2]uint64
}

// violations returns one message per tolerance this cell breaks.
func (c AccuracyCell) violations(tol AccuracyTolerance) []string {
	var v []string
	key := matrixKey(c.Workload, c.Policy)
	if c.RuntimeRel > tol.RuntimeRel {
		v = append(v, fmt.Sprintf("%s: runtime drift %.3g > %.3g", key, c.RuntimeRel, tol.RuntimeRel))
	}
	if c.PIMOpsRel > tol.PIMOpsRel {
		v = append(v, fmt.Sprintf("%s: PIM-op drift %.3g > %.3g", key, c.PIMOpsRel, tol.PIMOpsRel))
	}
	if c.PeakDRAMAbs > tol.PeakDRAMAbs {
		v = append(v, fmt.Sprintf("%s: peak-DRAM drift %.2f°C > %.2f°C", key, float64(c.PeakDRAMAbs), float64(tol.PeakDRAMAbs)))
	}
	if d := absDelta(c.Controls); d > tol.ControlSlack {
		v = append(v, fmt.Sprintf("%s: control updates %d (exact) vs %d (adaptive), slack %d", key, c.Controls[0], c.Controls[1], tol.ControlSlack))
	}
	if d := absDelta(c.Critical); d > tol.ControlSlack {
		v = append(v, fmt.Sprintf("%s: critical warnings %d (exact) vs %d (adaptive), slack %d", key, c.Critical[0], c.Critical[1], tol.ControlSlack))
	}
	if (c.Warnings[0] == 0) != (c.Warnings[1] == 0) {
		v = append(v, fmt.Sprintf("%s: tiers disagree on warning presence: %d (exact) vs %d (adaptive)", key, c.Warnings[0], c.Warnings[1]))
	}
	return v
}

func absDelta(pair [2]uint64) uint64 {
	if pair[0] > pair[1] {
		return pair[0] - pair[1]
	}
	return pair[1] - pair[0]
}

// AccuracyReport is a full adaptive-vs-exact campaign comparison.
type AccuracyReport struct {
	Profile string
	Cells   []AccuracyCell
	// Fig14 compares the series of the campaign's Fig. 14 cells, in
	// fig14Policies order.
	Fig14 []Fig14Drift
	// Wall-clock of the two campaigns (harness timing, never fed back
	// into simulated state).
	ExactWall    time.Duration
	AdaptiveWall time.Duration
}

// Speedup returns the adaptive tier's campaign wall-clock advantage.
func (r *AccuracyReport) Speedup() float64 {
	if r.AdaptiveWall <= 0 {
		return math.NaN()
	}
	return float64(r.ExactWall) / float64(r.AdaptiveWall)
}

// MaxPeakDrift returns the largest per-cell |Δpeak DRAM|.
func (r *AccuracyReport) MaxPeakDrift() units.Celsius {
	var m units.Celsius
	for _, c := range r.Cells {
		if c.PeakDRAMAbs > m {
			m = c.PeakDRAMAbs
		}
	}
	return m
}

// MaxRuntimeDrift returns the largest per-cell relative runtime delta.
func (r *AccuracyReport) MaxRuntimeDrift() float64 {
	m := 0.0
	for _, c := range r.Cells {
		if c.RuntimeRel > m {
			m = c.RuntimeRel
		}
	}
	return m
}

// Check returns an error naming every tolerance violation, in canonical
// matrix order, or nil if the report is within the contract.
func (r *AccuracyReport) Check(tol AccuracyTolerance) error {
	var all []string
	for _, c := range r.Cells {
		all = append(all, c.violations(tol)...)
	}
	for _, d := range r.Fig14 {
		all = append(all, d.violations(tol)...)
	}
	if len(all) == 0 {
		return nil
	}
	return fmt.Errorf("adaptive tier out of tolerance on %s profile (%d violations):\n  %s",
		r.Profile, len(all), strings.Join(all, "\n  "))
}

// CompareThermalModes runs the campaign matrix twice — exact tier, then
// adaptive tier with the profile's (or default) coupling knobs — and
// returns the per-cell figure-quantity deltas, plus the series deltas
// of the Fig. 14 cells the matrix includes. The exact run always
// forces ThermalMode=exact regardless of the profile, so the comparison
// baseline is the bit-identical tier even on adaptive-configured
// profiles.
func CompareThermalModes(ctx context.Context, p Profile, o MatrixOpts) (*AccuracyReport, error) {
	exact := p
	exact.Sys.ThermalMode = system.ThermalExact
	adaptive := p
	adaptive.Sys.ThermalMode = system.ThermalAdaptive

	start := time.Now()
	exRows, err := RunMatrixOpts(ctx, exact, o)
	if err != nil {
		return nil, fmt.Errorf("exact campaign: %w", err)
	}
	exWall := time.Since(start)

	start = time.Now()
	adRows, err := RunMatrixOpts(ctx, adaptive, o)
	if err != nil {
		return nil, fmt.Errorf("adaptive campaign: %w", err)
	}
	adWall := time.Since(start)

	rep := &AccuracyReport{Profile: p.Name, ExactWall: exWall, AdaptiveWall: adWall}
	if len(exRows) != len(adRows) {
		return nil, fmt.Errorf("campaign shape mismatch: %d vs %d rows", len(exRows), len(adRows))
	}
	for i, exRow := range exRows {
		adRow := adRows[i]
		if exRow.Workload != adRow.Workload {
			return nil, fmt.Errorf("row %d workload mismatch: %s vs %s", i, exRow.Workload, adRow.Workload)
		}
		for _, pol := range SortedPolicies(exRow) {
			ex, ad := exRow.Results[pol], adRow.Results[pol]
			if ex == nil || ad == nil {
				return nil, fmt.Errorf("%s: missing result pair", matrixKey(exRow.Workload, pol))
			}
			rep.Cells = append(rep.Cells, compareCell(exRow.Workload, pol, ex, ad))
		}
		if exRow.Workload != Fig14Workload {
			continue
		}
		for _, pol := range fig14Policies {
			ex, ad := exRow.Results[pol], adRow.Results[pol]
			if ex == nil {
				continue
			}
			d, err := compareFig14(pol, ex.Series, ad.Series)
			if err != nil {
				return nil, err
			}
			rep.Fig14 = append(rep.Fig14, d)
		}
	}
	return rep, nil
}

func compareCell(wl string, pol core.PolicyKind, ex, ad *system.Result) AccuracyCell {
	c := AccuracyCell{
		Workload: wl,
		Policy:   pol,
		Warnings: [2]uint64{ex.WarningsSeen, ad.WarningsSeen},
		Controls: [2]uint64{ex.ControlUpdates, ad.ControlUpdates},
		Critical: [2]uint64{ex.CriticalWarnings, ad.CriticalWarnings},
	}
	if ex.Runtime > 0 {
		c.RuntimeRel = math.Abs(float64(ad.Runtime)-float64(ex.Runtime)) / float64(ex.Runtime)
	}
	den := float64(ex.PIMOps)
	if den < 1 {
		den = 1
	}
	c.PIMOpsRel = math.Abs(float64(ad.PIMOps)-float64(ex.PIMOps)) / den
	c.PeakDRAMAbs = ad.PeakDRAM - ex.PeakDRAM
	if c.PeakDRAMAbs < 0 {
		c.PeakDRAMAbs = -c.PeakDRAMAbs
	}
	return c
}

// fig14Policies are the policies Fig. 14 plots.
var fig14Policies = []core.PolicyKind{core.NaiveOffloading, core.CoolPIMSW, core.CoolPIMHW}

// Fig14Drift summarizes one policy's adaptive-vs-exact series delta.
type Fig14Drift struct {
	Policy         core.PolicyKind
	SampleDelta    int           // |len(adaptive) − len(exact)|
	MeanRateRel    float64       // relative delta of the mean PIM rate
	MaxPeakDrift   units.Celsius // worst per-sample |Δpeak DRAM|
	PoolMismatches int           // samples whose pool size disagrees
}

// compareFig14 compares one Fig. 14 cell's series under both tiers by
// its decision-relevant content. Per-sample equality is deliberately
// NOT the contract: once the run throttles, bounded thermal drift
// shifts phase-derating and control instants by a window or two, which
// redistributes the same work across neighboring samples. What the
// figure argues with — how many samples the run took, the sustained
// offload rate, the temperature envelope, and where the controller's
// pool sat — is what gets bounded (see Fig14Drift.violations). An
// empty exact series, or an interior sample instant that moved, is an
// error.
func compareFig14(pol core.PolicyKind, ex, ad []system.Sample) (Fig14Drift, error) {
	if len(ex) == 0 {
		return Fig14Drift{}, fmt.Errorf("%v: empty exact series", pol)
	}
	d := Fig14Drift{Policy: pol, SampleDelta: len(ad) - len(ex)}
	if d.SampleDelta < 0 {
		d.SampleDelta = -d.SampleDelta
	}
	n := min(len(ex), len(ad))
	var exMean, adMean float64
	for i := 0; i < n; i++ {
		// The last sample of a series is the sampler's tail flush
		// at run end, so its instant moves with runtime drift;
		// every interior sample sits on the fixed sampling grid
		// and must not move at all.
		tail := i == len(ex)-1 || i == len(ad)-1
		if !tail && ad[i].At != ex[i].At {
			return d, fmt.Errorf("%v sample %d: timestamps diverged (%v vs %v): interior samples sit on the fixed grid and must not move",
				pol, i, ad[i].At, ex[i].At)
		}
		exMean += float64(ex[i].PIMRate)
		adMean += float64(ad[i].PIMRate)
		p := ad[i].PeakDRAM - ex[i].PeakDRAM
		if p < 0 {
			p = -p
		}
		if p > d.MaxPeakDrift {
			d.MaxPeakDrift = p
		}
		if ad[i].PoolSize != ex[i].PoolSize {
			d.PoolMismatches++
		}
	}
	if exMean != 0 {
		d.MeanRateRel = math.Abs(adMean-exMean) / math.Abs(exMean)
	}
	return d, nil
}

// violations returns one message per series tolerance this drift breaks.
func (d Fig14Drift) violations(tol AccuracyTolerance) []string {
	var v []string
	if d.SampleDelta > tol.SampleCountSlack {
		v = append(v, fmt.Sprintf("Fig. 14 %v: sample counts differ by %d (slack %d)", d.Policy, d.SampleDelta, tol.SampleCountSlack))
	}
	if d.MeanRateRel > tol.MeanRateRel {
		v = append(v, fmt.Sprintf("Fig. 14 %v: mean PIM-rate drift %.3g > %.3g", d.Policy, d.MeanRateRel, tol.MeanRateRel))
	}
	if d.MaxPeakDrift > tol.PeakDRAMAbs {
		v = append(v, fmt.Sprintf("Fig. 14 %v: per-sample peak-DRAM drift %.2f°C > %.2f°C",
			d.Policy, float64(d.MaxPeakDrift), float64(tol.PeakDRAMAbs)))
	}
	if d.PoolMismatches > tol.PoolMismatchMax {
		v = append(v, fmt.Sprintf("Fig. 14 %v: pool size disagrees on %d samples (max %d)",
			d.Policy, d.PoolMismatches, tol.PoolMismatchMax))
	}
	return v
}

// accuracyProfile resolves the campaign profile for the epsilon
// harness. Unit tests run the reduced test profile; `make
// accuracy-check` sets COOLPIM_ACCURACY_PROFILE=paper to re-run the
// same contract at campaign scale.
func accuracyProfile(t *testing.T) (Profile, bool) {
	t.Helper()
	switch name := os.Getenv("COOLPIM_ACCURACY_PROFILE"); name {
	case "":
		return TestProfile(), false
	case "test":
		return TestProfile(), true
	case "quick":
		return QuickProfile(), true
	case "paper":
		return PaperProfile(), true
	case "full":
		return FullProfile(), true
	default:
		t.Fatalf("unknown COOLPIM_ACCURACY_PROFILE %q", name)
		return Profile{}, false
	}
}

// TestAdaptiveMatrixWithinEpsilon is the system-level half of the
// epsilon-bounded differential proof (DESIGN.md §6c): the campaign
// matrix under -thermal-mode=adaptive must reproduce every figure-level
// decision quantity of the exact tier within DefaultAccuracyTolerance,
// and so must the closed-loop time series of its three Fig. 14 cells —
// sample count, sample instants, per-policy mean offload rate,
// pool-size agreement, and the plotted temperature envelope. The
// default run compares the thermally interesting corner of the matrix
// (the offloading policies, including both throttled controllers) on
// the test profile; COOLPIM_ACCURACY_PROFILE widens it to the full
// matrix at campaign scale.
func TestAdaptiveMatrixWithinEpsilon(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system comparison run")
	}
	p, fullMatrix := accuracyProfile(t)
	opts := MatrixOpts{
		Workloads: []string{"dc", Fig14Workload, "pagerank"},
		Policies:  fig14Policies,
	}
	if fullMatrix {
		opts = MatrixOpts{} // every workload × every policy
	}
	rep, err := CompareThermalModes(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Fig14 {
		t.Logf("Fig. 14 %-16v samplesΔ=%d meanRateRel=%.3g maxPeakDrift=%.3f°C poolMismatches=%d",
			d.Policy, d.SampleDelta, d.MeanRateRel, float64(d.MaxPeakDrift), d.PoolMismatches)
	}
	if err := rep.Check(DefaultAccuracyTolerance()); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) == 0 {
		t.Fatal("empty comparison report")
	}
	if len(rep.Fig14) != len(fig14Policies) {
		t.Fatalf("compared %d of the %d Fig. 14 cells (%s × %v)",
			len(rep.Fig14), len(fig14Policies), Fig14Workload, fig14Policies)
	}
	t.Logf("profile=%s cells=%d exact=%v adaptive=%v speedup=%.2fx maxPeakDrift=%.3f°C maxRuntimeDrift=%.3g",
		rep.Profile, len(rep.Cells), rep.ExactWall, rep.AdaptiveWall,
		rep.Speedup(), float64(rep.MaxPeakDrift()), rep.MaxRuntimeDrift())
}

// TestFig14AdaptiveWithinEpsilon pins the closed-loop time series on the
// campaign `figures -exp fig14` runs when Fig. 14 is asked for alone:
// the three Fig. 14 cells and nothing else. Under -thermal-mode=adaptive
// every figure-level series quantity — sample count, sample instants,
// per-policy mean offload rate, pool-size agreement, and the plotted
// temperature envelope — must stay within DefaultAccuracyTolerance of
// the exact tier, and each of the three cells must be compared.
func TestFig14AdaptiveWithinEpsilon(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system comparison run")
	}
	p, _ := accuracyProfile(t)
	rep, err := CompareThermalModes(context.Background(), p, MatrixOpts{
		Workloads: []string{Fig14Workload},
		Policies:  fig14Policies,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Fig14 {
		t.Logf("%-16v samplesΔ=%d meanRateRel=%.3g maxPeakDrift=%.3f°C poolMismatches=%d",
			d.Policy, d.SampleDelta, d.MeanRateRel, float64(d.MaxPeakDrift), d.PoolMismatches)
	}
	if err := rep.Check(DefaultAccuracyTolerance()); err != nil {
		t.Fatal(err)
	}
	if len(rep.Fig14) != len(fig14Policies) {
		t.Fatalf("compared %d of the %d Fig. 14 cells (%s × %v)",
			len(rep.Fig14), len(fig14Policies), Fig14Workload, fig14Policies)
	}
	for i, d := range rep.Fig14 {
		if d.Policy != fig14Policies[i] {
			t.Errorf("Fig. 14 comparison %d is %v, want %v", i, d.Policy, fig14Policies[i])
		}
	}
}
