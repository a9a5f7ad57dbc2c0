package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"coolpim/internal/sim"
	"coolpim/internal/units"
)

// Series is a periodic time-series sampler: a set of named columns
// (callbacks reading the live simulation state) recorded at a fixed
// simulated cadence by the engine's Every ticker, exported as CSV with
// one aligned row per sample — the machine-readable form of the paper's
// Fig. 8/14 temperature/PIM-rate traces.
type Series struct {
	cols  []seriesColumn
	times []units.Time
	rows  [][]float64
}

type seriesColumn struct {
	name string
	fn   func(now units.Time) float64
}

// NewSeries returns an empty sampler.
func NewSeries() *Series { return &Series{} }

// AddColumn registers a column. Columns are evaluated in registration
// order on every sample; fn reads whatever live state it closes over.
// Columns must be added before the first Record.
func (s *Series) AddColumn(name string, fn func(now units.Time) float64) {
	if s == nil {
		return
	}
	if len(s.rows) > 0 {
		panic("telemetry: AddColumn after sampling started")
	}
	for _, c := range s.cols {
		if c.name == name {
			panic(fmt.Sprintf("telemetry: duplicate series column %q", name))
		}
	}
	s.cols = append(s.cols, seriesColumn{name: name, fn: fn})
}

// Record takes one sample now.
func (s *Series) Record(now units.Time) {
	if s == nil {
		return
	}
	row := make([]float64, len(s.cols))
	for i, c := range s.cols {
		row[i] = c.fn(now)
	}
	s.times = append(s.times, now)
	s.rows = append(s.rows, row)
}

// Start schedules periodic sampling on the engine, one sample every
// period starting one period from now, under the "telemetry" component
// label. Sampling stops when stop (if non-nil) returns true; the run's
// final state still lands in the last sample because stop is evaluated
// after recording.
func (s *Series) Start(eng *sim.Engine, period units.Time, stop func() bool) {
	if s == nil {
		return
	}
	eng.EveryNamed(period, "telemetry", func(now units.Time) bool {
		s.Record(now)
		return stop == nil || !stop()
	})
}

// Len returns the number of recorded samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.times)
}

// Value returns the recorded value of column name at sample i.
func (s *Series) Value(i int, name string) (float64, bool) {
	if s == nil || i < 0 || i >= len(s.rows) {
		return 0, false
	}
	for j, c := range s.cols {
		if c.name == name {
			return s.rows[i][j], true
		}
	}
	return 0, false
}

// WriteCSV writes the series with a t_ms time column followed by every
// registered column, one row per sample.
func (s *Series) WriteCSV(w io.Writer) error {
	if s == nil {
		return nil
	}
	var sb strings.Builder
	sb.WriteString("t_ms")
	for _, c := range s.cols {
		sb.WriteByte(',')
		sb.WriteString(c.name)
	}
	sb.WriteByte('\n')
	for i, at := range s.times {
		fmt.Fprintf(&sb, "%.6f", at.Milliseconds())
		for _, v := range s.rows[i] {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
