package experiments

import (
	"context"
	"fmt"

	"coolpim/internal/core"
	"coolpim/internal/system"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// This file holds the ablation studies DESIGN.md calls out: sweeps over
// CoolPIM's design parameters that the paper discusses qualitatively
// (control factor size, the delayed-control-update window, the Eq. 1
// margin) plus the cooling-solution sensitivity and the footnote-4
// multi-level warning extension.

// AblationPoint is one row of an ablation sweep.
type AblationPoint struct {
	Label    string
	Speedup  float64 // over the non-offloading baseline of the same setup
	PIMRate  units.OpsPerNs
	PeakDRAM units.Celsius
	Updates  uint64
	Shutdown bool
}

// sweep runs one ablation point per value: set applies the value to
// the profile's platform, and the point is a two-cell campaign, the
// workload under the non-offloading baseline and under pol, both cells
// at once.
func sweep[T any](p Profile, workload string, pol core.PolicyKind, vals []T, label func(T) string, set func(*system.Config, T)) ([]AblationPoint, error) {
	pts := make([]AblationPoint, 0, len(vals))
	for _, v := range vals {
		q := p
		set(&q.Sys, v)
		rows, err := RunMatrixOpts(context.TODO(), q, MatrixOpts{
			Workloads: []string{workload},
			Policies:  []core.PolicyKind{core.NonOffloading, pol},
			Parallel:  2,
		})
		if err != nil {
			return nil, err
		}
		res, base := rows[0].Results[pol], rows[0].Results[core.NonOffloading]
		pts = append(pts, AblationPoint{
			Label:    label(v),
			Speedup:  res.Speedup(base),
			PIMRate:  res.AvgPIMRate,
			PeakDRAM: res.PeakDRAM,
			Updates:  res.ControlUpdates,
			Shutdown: res.Shutdown,
		})
	}
	return pts, nil
}

// AblationControlFactor sweeps HW-DynT's per-step PCU reduction: small
// factors converge slowly (more time above 85 °C), large factors risk
// under-tuning the offload intensity — the trade-off of Section IV-B.
func AblationControlFactor(p Profile, workload string, factors []int) ([]AblationPoint, error) {
	return sweep(p, workload, core.CoolPIMHW, factors,
		func(cf int) string { return fmt.Sprintf("CF=%d", cf) },
		func(c *system.Config, cf int) { c.Throttle.HWControlFactor = cf })
}

// AblationSettleTime sweeps the delayed-control-update window
// (Tthermal): too short over-reduces during the thermal lag, too long
// leaves the cube hot between steps (Section IV-C).
func AblationSettleTime(p Profile, workload string, settles []units.Time) ([]AblationPoint, error) {
	return sweep(p, workload, core.CoolPIMHW, settles,
		func(st units.Time) string { return fmt.Sprintf("settle=%v", st) },
		func(c *system.Config, st units.Time) { c.Throttle.SettleTime = st })
}

// AblationMargin sweeps SW-DynT's Eq. 1 initialization margin ("we use a
// margin of 4 thread blocks for our evaluation").
func AblationMargin(p Profile, workload string, margins []int) ([]AblationPoint, error) {
	return sweep(p, workload, core.CoolPIMSW, margins,
		func(m int) string { return fmt.Sprintf("margin=%d", m) },
		func(c *system.Config, m int) { c.Throttle.Margin = m })
}

// AblationCooling runs naive offloading under each Table II cooling
// solution: the stronger the sink, the later thermal trouble arrives.
func AblationCooling(p Profile, workload string) ([]AblationPoint, error) {
	return sweep(p, workload, core.NaiveOffloading, thermal.Coolings(),
		func(cool thermal.Cooling) string { return cool.Name },
		func(c *system.Config, cool thermal.Cooling) { c.Cooling = cool })
}

// AblationMultiLevel compares standard HW-DynT against the footnote-4
// two-level-warning extension under a deliberately weak heat sink, where
// single-level feedback overshoots deep into the critical phase.
func AblationMultiLevel(p Profile, workload string) ([]AblationPoint, error) {
	p.Sys.Cooling = thermal.Cooling{Name: "weak sink", SinkResistance: 1.2, FanPowerRel: 1}
	return sweep(p, workload, core.CoolPIMHW, []bool{false, true},
		func(multi bool) string {
			if multi {
				return "multi-level HW-DynT (ext.)"
			}
			return "single-level HW-DynT"
		},
		func(c *system.Config, multi bool) { c.MultiLevelHW = multi })
}
