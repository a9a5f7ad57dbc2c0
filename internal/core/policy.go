package core

import (
	"fmt"
	"strings"

	"coolpim/internal/units"
)

// PolicyKind names the five system configurations of the evaluation
// (Section V-B).
type PolicyKind int

// Evaluation configurations.
const (
	// NonOffloading is the baseline: HMC as plain GPU memory, no PIM.
	NonOffloading PolicyKind = iota
	// NaiveOffloading offloads every PIM-eligible atomic with no source
	// control (PEI-style).
	NaiveOffloading
	// CoolPIMSW is SW-DynT source throttling.
	CoolPIMSW
	// CoolPIMHW is HW-DynT source throttling.
	CoolPIMHW
	// IdealThermal offloads everything under unlimited cooling.
	IdealThermal
)

func (k PolicyKind) String() string {
	switch k {
	case NonOffloading:
		return "Non-Offloading"
	case NaiveOffloading:
		return "Naive-Offloading"
	case CoolPIMSW:
		return "CoolPIM(SW)"
	case CoolPIMHW:
		return "CoolPIM(HW)"
	case IdealThermal:
		return "IdealThermal"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(k))
}

// Kinds returns all policies in presentation order (Fig. 10 legend).
func Kinds() []PolicyKind {
	return []PolicyKind{NonOffloading, NaiveOffloading, CoolPIMSW, CoolPIMHW, IdealThermal}
}

// policyNames maps the CLI spellings shared by every command and example
// to their PolicyKind.
var policyNames = map[string]PolicyKind{
	"baseline":   NonOffloading,
	"naive":      NaiveOffloading,
	"coolpim-sw": CoolPIMSW,
	"coolpim-hw": CoolPIMHW,
	"ideal":      IdealThermal,
}

// ParsePolicy resolves a CLI policy name ("baseline", "naive",
// "coolpim-sw", "coolpim-hw", "ideal") to its PolicyKind.
func ParsePolicy(name string) (PolicyKind, error) {
	if k, ok := policyNames[name]; ok {
		return k, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want one of %s)", name, strings.Join(PolicyNames(), ", "))
}

// PolicyNames returns the accepted ParsePolicy spellings in presentation
// order.
func PolicyNames() []string {
	return []string{"baseline", "naive", "coolpim-sw", "coolpim-hw", "ideal"}
}

// ThermalEffectsDisabled reports whether the configuration assumes
// unlimited cooling (the cube never derates, warns, or shuts down).
func (k PolicyKind) ThermalEffectsDisabled() bool { return k == IdealThermal }

// Policy is the interface the GPU model throttles through. The three
// decision points mirror the paper's mechanisms: block launch (SW-DynT
// marks the block PIM-enabled or not), decode-time warp translation
// (HW-DynT's PCU check), and warning delivery. SWDynT and HWDynT
// implement it; the uncontrolled configurations are static policies.
//
// Policies may additionally implement OccupancyObserver to learn which
// warp slots the thread-block manager actually occupies.
type Policy interface {
	Kind() PolicyKind
	// BlockLaunch is consulted when the thread-block manager launches a
	// block; true runs the block PIM-enabled, false executes every
	// atomic of the block as a host atomic.
	BlockLaunch() bool
	// BlockComplete is notified when a block retires; wasPIM echoes the
	// BlockLaunch decision so SW-DynT can return its token.
	BlockComplete(wasPIM bool)
	// WarpPIMEnabled is consulted at decode for each PIM instruction of
	// a PIM-enabled block; false translates it to a host atomic.
	WarpPIMEnabled(sm, warpSlot int) bool
	// OnThermalWarning delivers a thermal-warning response observation.
	OnThermalWarning(now units.Time)
}

// staticPolicy implements the three uncontrolled configurations.
type staticPolicy struct {
	kind PolicyKind
	pim  bool
}

func (p *staticPolicy) Kind() PolicyKind             { return p.kind }
func (p *staticPolicy) BlockLaunch() bool            { return p.pim }
func (p *staticPolicy) BlockComplete(bool)           {}
func (p *staticPolicy) WarpPIMEnabled(int, int) bool { return p.pim }
func (p *staticPolicy) OnThermalWarning(units.Time)  {}

// NewNonOffloading returns the baseline policy.
func NewNonOffloading() Policy { return &staticPolicy{kind: NonOffloading} }

// NewNaiveOffloading returns the PEI-style always-offload policy.
func NewNaiveOffloading() Policy { return &staticPolicy{kind: NaiveOffloading, pim: true} }

// NewIdealThermal returns the unlimited-cooling always-offload policy.
func NewIdealThermal() Policy { return &staticPolicy{kind: IdealThermal, pim: true} }

// OccupancyObserver is implemented by policies whose throttling state
// depends on real warp-slot occupancy (HW-DynT's PCUs).
type OccupancyObserver interface {
	ObserveWarpSlot(sm, warpSlot int)
}
