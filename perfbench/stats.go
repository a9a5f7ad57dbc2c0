package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// percentile is the nearest-rank percentile of xs: the smallest sample
// with at least p% of the samples at or below it. With n samples it is
// the ceil(p/100·n)-th smallest, so p80 of 50 cell walls is the 40th
// (10 cells lie beyond it) and p50 of 3 cells is the 2nd. It returns
// NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// metricNameRE is the metric-name charset BENCHMARK.json accepts: a
// leading letter or digit, then letters, digits, '_', '.' and '-', at
// most 64 characters in all.
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the unit charset: at most 16 letters, digits, '_', '/', '%',
// '.' and '-'.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// N is the sample count behind a median or percentile (0 when the
	// value is a single measurement or an exact count).
	N int
}

// metricSet keeps metrics in report order.
type metricSet struct{ list []metric }

func (m *metricSet) add(name string, v float64, unit string, n int) {
	m.list = append(m.list, metric{Name: name, Value: v, Unit: unit, N: n})
}

// validate checks every name and unit against the charsets and that no
// name repeats. A correct run must also have a finite value for every
// metric; a failed one may lack samples (all its cells failed).
func (m *metricSet) validate(correct bool) error {
	seen := map[string]bool{}
	for _, x := range m.list {
		if !metricNameRE.MatchString(x.Name) {
			return fmt.Errorf("metric name %q outside the charset", x.Name)
		}
		if !unitRE.MatchString(x.Unit) {
			return fmt.Errorf("metric %s: unit %q outside the charset", x.Name, x.Unit)
		}
		if seen[x.Name] {
			return fmt.Errorf("metric %s reported twice", x.Name)
		}
		if correct && (math.IsNaN(x.Value) || math.IsInf(x.Value, 0)) {
			return fmt.Errorf("metric %s is %v", x.Name, x.Value)
		}
		seen[x.Name] = true
	}
	return nil
}
