// Package units defines the physical and simulated quantities shared by
// the CoolPIM models: simulated time, temperature, power, energy and
// bandwidth. Keeping them as distinct named types prevents the classic
// pJ-vs-W and GB/s-vs-Gbit/s unit mix-ups at compile time.
package units

import (
	"fmt"
	"math"
)

// Time is simulated time in picoseconds. A signed 64-bit count of
// picoseconds covers ~106 days of simulated time, far beyond any run here.
type Time int64

// Time constants.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds returns t in nanoseconds as a float.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Milliseconds returns t in milliseconds as a float.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Times returns n periods of t: the duration of n back-to-back cycles,
// FLITs or other fixed-cost items. It exists so call sites never
// multiply two Time values directly (count × period reads as Time ×
// Time to the type system, which the unitsafety analyzer rejects).
func (t Time) Times(n int) Time { return t * Time(n) }

// FromSeconds converts seconds to simulated Time, rounding to the
// nearest picosecond.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// FromNanoseconds converts nanoseconds to simulated Time.
func FromNanoseconds(ns float64) Time { return Time(math.Round(ns * float64(Nanosecond))) }

// Celsius is a temperature in degrees Celsius.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

// Kelvin returns the absolute temperature.
func (c Celsius) Kelvin() float64 { return float64(c) + 273.15 }

// FromKelvin converts an absolute temperature to Celsius.
func FromKelvin(k float64) Celsius { return Celsius(k - 273.15) }

// Watt is power in watts.
type Watt float64

func (w Watt) String() string { return fmt.Sprintf("%.3fW", float64(w)) }

// Joule is energy in joules.
type Joule float64

// Over returns the average power of spending e over duration d.
// A non-positive duration yields zero power.
func (e Joule) Over(d Time) Watt {
	if d <= 0 {
		return 0
	}
	return Watt(float64(e) / d.Seconds())
}

// BytesPerSecond is a data bandwidth. The paper quotes data bandwidth in
// GB/s (decimal, 1e9 bytes/s), which we follow.
type BytesPerSecond float64

// GBps constructs a bandwidth from a GB/s figure (decimal gigabytes).
func GBps(g float64) BytesPerSecond { return BytesPerSecond(g * 1e9) }

// GBps reports the bandwidth in decimal GB/s.
func (b BytesPerSecond) GBps() float64 { return float64(b) / 1e9 }

func (b BytesPerSecond) String() string { return fmt.Sprintf("%.2fGB/s", b.GBps()) }

// BitsPerSecond converts to a bit rate.
func (b BytesPerSecond) BitsPerSecond() float64 { return float64(b) * 8 }

// EnergyPerBit is an energy cost in joules per bit, the unit the paper's
// power model is specified in (pJ/bit).
type EnergyPerBit float64

// PicojoulePerBit constructs an EnergyPerBit from a pJ/bit figure.
func PicojoulePerBit(pj float64) EnergyPerBit { return EnergyPerBit(pj * 1e-12) }

// PowerAt returns the power drawn when moving data at bandwidth b with
// this per-bit energy cost: power = energy/bit × bit rate.
func (e EnergyPerBit) PowerAt(b BytesPerSecond) Watt {
	return Watt(float64(e) * b.BitsPerSecond())
}

// ThermalResistance is a heat-sink (or path) thermal resistance in °C/W.
type ThermalResistance float64

func (r ThermalResistance) String() string { return fmt.Sprintf("%.2f°C/W", float64(r)) }

// Rise returns the steady-state temperature rise across the resistance
// when conducting power p.
func (r ThermalResistance) Rise(p Watt) Celsius { return Celsius(float64(r) * float64(p)) }

// OpsPerNs is a PIM offloading rate in operations per nanosecond, the
// unit used throughout the paper's Section III-C and Figures 5/12/14.
type OpsPerNs float64

func (o OpsPerNs) String() string { return fmt.Sprintf("%.2fop/ns", float64(o)) }

// OpsPerSecond converts the rate to operations per second.
func (o OpsPerNs) OpsPerSecond() float64 { return float64(o) * 1e9 }

// Clamp returns x limited to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
