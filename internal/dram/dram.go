// Package dram models the stacked DRAM of an HMC: per-bank timing under
// a closed-page policy, refresh, and — central to the paper — the
// temperature-phased operation the evaluation assumes (Table IV): three
// operating phases (0–85 °C, 85–95 °C, 95–105 °C) with a 20 % DRAM
// frequency reduction when switching to each higher phase, doubled
// refresh rate in the extended range (JEDEC), and a hard shutdown above
// 105 °C as observed on the HMC 1.1 prototype.
package dram

import (
	"fmt"

	"coolpim/internal/units"
)

// Timing holds the DRAM timing parameters. Base values follow the
// paper's Table IV (tCL = tRCD = tRP = 13.75 ns, tRAS = 27.5 ns); the
// remaining parameters are conventional DDR-class values scaled to the
// HMC's internal TSV bus.
type Timing struct {
	TCL   units.Time // column (CAS) latency
	TRCD  units.Time // activate-to-column delay
	TRP   units.Time // precharge time
	TRAS  units.Time // minimum activate-to-precharge
	TWR   units.Time // write recovery
	TRFC  units.Time // refresh cycle time (bank group blocked)
	TREFI units.Time // refresh interval

	// TBurst64 is the time to stream a 64-byte block over the vault's
	// TSV data bus; TBurst16 is the 16-byte burst used by a PIM
	// operand access.
	TBurst64 units.Time
	TBurst16 units.Time

	// TFU is the latency of the logic-layer functional unit performing
	// the read-modify-write computation of a PIM instruction.
	TFU units.Time
}

// DefaultTiming returns the Table IV timing set.
func DefaultTiming() Timing {
	return Timing{
		TCL:      units.FromNanoseconds(13.75),
		TRCD:     units.FromNanoseconds(13.75),
		TRP:      units.FromNanoseconds(13.75),
		TRAS:     units.FromNanoseconds(27.5),
		TWR:      units.FromNanoseconds(15.0),
		TRFC:     units.FromNanoseconds(160.0),
		TREFI:    units.FromNanoseconds(7800.0),
		TBurst64: units.FromNanoseconds(4.0),
		TBurst16: units.FromNanoseconds(1.0),
		TFU:      units.FromNanoseconds(2.0),
	}
}

// Scale returns the timing set with every latency multiplied by f.
// A 20 % frequency reduction corresponds to f = 1/0.8 = 1.25.
func (t Timing) Scale(f float64) Timing {
	return Timing{
		TCL:      units.Time(float64(t.TCL) * f),
		TRCD:     units.Time(float64(t.TRCD) * f),
		TRP:      units.Time(float64(t.TRP) * f),
		TRAS:     units.Time(float64(t.TRAS) * f),
		TWR:      units.Time(float64(t.TWR) * f),
		TRFC:     units.Time(float64(t.TRFC) * f),
		TREFI:    t.TREFI, // refresh interval is wall-clock, not frequency-scaled
		TBurst64: units.Time(float64(t.TBurst64) * f),
		TBurst16: units.Time(float64(t.TBurst16) * f),
		TFU:      units.Time(float64(t.TFU) * f),
	}
}

// Phase is the DRAM temperature operating phase of Table IV.
type Phase int

// Operating phases.
const (
	// PhaseNormal is the 0–85 °C normal operating range.
	PhaseNormal Phase = iota
	// PhaseExtended is the 85–95 °C extended range: 20 % frequency
	// reduction and doubled refresh rate.
	PhaseExtended
	// PhaseCritical is the 95–105 °C range: a further 20 % frequency
	// reduction (0.8² = 0.64 of nominal) and doubled refresh rate.
	PhaseCritical
	// PhaseShutdown is >105 °C: the cube stops serving requests (the
	// conservative prototype policy; data is lost and recovery takes
	// tens of seconds).
	PhaseShutdown
)

// Phase boundaries (°C).
const (
	NormalLimit   units.Celsius = 85
	ExtendedLimit units.Celsius = 95
	ShutdownLimit units.Celsius = 105
)

func (p Phase) String() string {
	switch p {
	case PhaseNormal:
		return "normal(0-85°C)"
	case PhaseExtended:
		return "extended(85-95°C)"
	case PhaseCritical:
		return "critical(95-105°C)"
	case PhaseShutdown:
		return "shutdown(>105°C)"
	}
	// Out-of-range phases only arise from a programming error; a constant
	// fallback keeps String allocation-free on the thermal tick path.
	return "phase(invalid)"
}

// PhaseForTemp maps a peak DRAM temperature to its operating phase.
func PhaseForTemp(c units.Celsius) Phase {
	switch {
	case c <= NormalLimit:
		return PhaseNormal
	case c <= ExtendedLimit:
		return PhaseExtended
	case c <= ShutdownLimit:
		return PhaseCritical
	default:
		return PhaseShutdown
	}
}

// FrequencyFactor returns the DRAM operating frequency relative to
// nominal in this phase (Table IV: 20 % reduction per high phase).
func (p Phase) FrequencyFactor() float64 {
	switch p {
	case PhaseNormal:
		return 1.0
	case PhaseExtended:
		return 0.8
	case PhaseCritical:
		return 0.8 * 0.8
	default:
		return 0
	}
}

// RefreshMultiplier returns the refresh-rate multiplier in this phase
// (JEDEC extended range doubles the refresh rate).
func (p Phase) RefreshMultiplier() int {
	if p == PhaseNormal {
		return 1
	}
	return 2
}

// TimingScale returns the latency scale factor for this phase: the
// inverse of the frequency factor. It panics in shutdown, where no
// request may be scheduled.
func (p Phase) TimingScale() float64 {
	f := p.FrequencyFactor()
	if f == 0 {
		panic("dram: timing requested while in shutdown phase")
	}
	return 1 / f
}

// AccessKind distinguishes the three bank transactions.
type AccessKind int

// Bank transaction kinds.
const (
	ReadAccess  AccessKind = iota // 64-byte read
	WriteAccess                   // 64-byte write
	PIMAccess                     // atomic read-modify-write (bank locked throughout)
)

func (k AccessKind) String() string {
	switch k {
	case ReadAccess:
		return "read"
	case WriteAccess:
		return "write"
	case PIMAccess:
		return "pim-rmw"
	}
	return fmt.Sprintf("AccessKind(%d)", int(k))
}

// Stats aggregates per-bank activity.
type Stats struct {
	Reads     uint64
	Writes    uint64
	PIMOps    uint64
	Refreshes uint64
	// BusyTime is the cumulative time the bank spent occupied.
	BusyTime units.Time
}

// Bank is a single DRAM bank under a closed-page policy: every access
// activates a row, transfers data, and precharges. The zero value is an
// idle bank free at time zero.
type Bank struct {
	freeAt units.Time
	stats  Stats
}

// FreeAt returns the earliest time a new access can start.
func (b *Bank) FreeAt() units.Time { return b.freeAt }

// Stats returns the accumulated activity counters.
func (b *Bank) Stats() Stats { return b.stats }

// Schedule books an access of kind k arriving at now with timing t. It
// returns dataAt, the time the transaction's data (or completion for
// writes/PIM) is available at the vault controller, and freeAt, the time
// the bank can accept the next access. PIM accesses model the HMC 2.0
// atomic read-modify-write: the bank is locked for the entire
// read + functional-unit + write-back sequence, so no other request to
// the bank can be serviced meanwhile. t is a pointer because the cube
// books one access per request and a Timing is 80 bytes.
func (b *Bank) Schedule(now units.Time, k AccessKind, t *Timing) (dataAt, freeAt units.Time) {
	start := max(now, b.freeAt)
	var active units.Time // activate-to-data/completion portion
	var tail units.Time   // post-data occupancy before precharge
	switch k {
	case ReadAccess:
		active = t.TRCD + t.TCL + t.TBurst64
		tail = 0
		b.stats.Reads++
	case WriteAccess:
		active = t.TRCD + t.TCL + t.TBurst64
		tail = t.TWR
		b.stats.Writes++
	case PIMAccess:
		// Read the 16-byte operand, compute in the logic-layer FU,
		// write the result back — atomically, bank locked throughout.
		active = t.TRCD + t.TCL + t.TBurst16 + t.TFU + t.TBurst16
		tail = t.TWR
		b.stats.PIMOps++
	default:
		panic(fmt.Sprintf("dram: unknown access kind %v", k))
	}
	dataAt = start + active
	// Enforce minimum row-activate time before precharge.
	rowOpen := max(active+tail, t.TRAS)
	freeAt = start + rowOpen + t.TRP
	b.freeAt = freeAt
	b.stats.BusyTime += freeAt - start
	return dataAt, freeAt
}

// Refresh blocks the bank for one refresh cycle starting no earlier than
// now, returning when the bank is free again.
func (b *Bank) Refresh(now units.Time, t Timing) (freeAt units.Time) {
	start := max(now, b.freeAt)
	b.freeAt = start + t.TRFC
	b.stats.Refreshes++
	b.stats.BusyTime += t.TRFC
	return b.freeAt
}

// RefreshInterval returns the effective refresh interval for phase p:
// the nominal tREFI divided by the phase's refresh-rate multiplier.
func RefreshInterval(t Timing, p Phase) units.Time {
	return t.TREFI / units.Time(p.RefreshMultiplier())
}
