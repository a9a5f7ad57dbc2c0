package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"coolpim/internal/units"
)

func TestDefaultTimingMatchesTable4(t *testing.T) {
	tm := DefaultTiming()
	if tm.TCL != units.FromNanoseconds(13.75) ||
		tm.TRCD != units.FromNanoseconds(13.75) ||
		tm.TRP != units.FromNanoseconds(13.75) {
		t.Errorf("tCL/tRCD/tRP = %v/%v/%v, want 13.75ns each", tm.TCL, tm.TRCD, tm.TRP)
	}
	if tm.TRAS != units.FromNanoseconds(27.5) {
		t.Errorf("tRAS = %v, want 27.5ns", tm.TRAS)
	}
}

func TestTimingScale(t *testing.T) {
	tm := DefaultTiming()
	s := tm.Scale(1.25) // 20% frequency reduction
	if s.TCL != units.Time(float64(tm.TCL)*1.25) {
		t.Errorf("scaled tCL = %v", s.TCL)
	}
	if s.TREFI != tm.TREFI {
		t.Error("tREFI must not scale with frequency (it is wall-clock)")
	}
}

func TestPhaseForTemp(t *testing.T) {
	cases := []struct {
		temp units.Celsius
		want Phase
	}{
		{0, PhaseNormal}, {50, PhaseNormal}, {85, PhaseNormal},
		{85.1, PhaseExtended}, {95, PhaseExtended},
		{95.1, PhaseCritical}, {105, PhaseCritical},
		{105.1, PhaseShutdown}, {200, PhaseShutdown},
	}
	for _, c := range cases {
		if got := PhaseForTemp(c.temp); got != c.want {
			t.Errorf("PhaseForTemp(%v) = %v, want %v", c.temp, got, c.want)
		}
	}
}

func TestPhaseFactors(t *testing.T) {
	if PhaseNormal.FrequencyFactor() != 1.0 {
		t.Error("normal phase must run at nominal frequency")
	}
	if PhaseExtended.FrequencyFactor() != 0.8 {
		t.Errorf("extended phase factor = %v, want 0.8 (20%% reduction)", PhaseExtended.FrequencyFactor())
	}
	if f := PhaseCritical.FrequencyFactor(); f < 0.639 || f > 0.641 {
		t.Errorf("critical phase factor = %v, want 0.64", f)
	}
	if PhaseShutdown.FrequencyFactor() != 0 {
		t.Error("shutdown phase must have zero frequency")
	}
	if PhaseNormal.RefreshMultiplier() != 1 || PhaseExtended.RefreshMultiplier() != 2 {
		t.Error("refresh multiplier: normal=1, extended=2 (JEDEC doubled refresh)")
	}
}

func TestTimingScaleFromPhase(t *testing.T) {
	if s := PhaseExtended.TimingScale(); s != 1.25 {
		t.Errorf("extended timing scale = %v, want 1.25", s)
	}
	defer func() {
		if recover() == nil {
			t.Error("TimingScale in shutdown did not panic")
		}
	}()
	PhaseShutdown.TimingScale()
}

func TestBankReadTiming(t *testing.T) {
	var b Bank
	tm := DefaultTiming()
	dataAt, freeAt := b.Schedule(0, ReadAccess, &tm)
	wantData := tm.TRCD + tm.TCL + tm.TBurst64
	if dataAt != wantData {
		t.Errorf("read dataAt = %v, want %v", dataAt, wantData)
	}
	// Activate portion (31.5ns) exceeds tRAS (27.5ns), so freeAt =
	// active + tRP.
	if freeAt != wantData+tm.TRP {
		t.Errorf("read freeAt = %v, want %v", freeAt, wantData+tm.TRP)
	}
}

func TestBankPIMAtomicity(t *testing.T) {
	// A PIM RMW locks the bank for read+FU+write; a subsequent read must
	// not start before the PIM access fully completes (including
	// precharge).
	var b Bank
	tm := DefaultTiming()
	_, pimFree := b.Schedule(0, PIMAccess, &tm)
	dataAt, _ := b.Schedule(0, ReadAccess, &tm)
	if dataAt < pimFree {
		t.Errorf("read data at %v arrived before PIM released bank at %v", dataAt, pimFree)
	}
	if b.Stats().PIMOps != 1 || b.Stats().Reads != 1 {
		t.Errorf("stats = %+v", b.Stats())
	}
}

func TestBankRespectsTRAS(t *testing.T) {
	// With an artificially long tRAS, freeAt must be start+tRAS+tRP even
	// though the data burst finishes earlier.
	tm := DefaultTiming()
	tm.TRAS = units.FromNanoseconds(100)
	var b Bank
	_, freeAt := b.Schedule(0, ReadAccess, &tm)
	want := tm.TRAS + tm.TRP
	if freeAt != want {
		t.Errorf("freeAt = %v, want %v (tRAS bound)", freeAt, want)
	}
}

func TestBankQueueing(t *testing.T) {
	var b Bank
	tm := DefaultTiming()
	_, free1 := b.Schedule(0, ReadAccess, &tm)
	data2, _ := b.Schedule(0, ReadAccess, &tm) // arrives while busy
	if data2 != free1+tm.TRCD+tm.TCL+tm.TBurst64 {
		t.Errorf("queued read dataAt = %v, want start at %v", data2, free1)
	}
}

func TestBankIdleGap(t *testing.T) {
	var b Bank
	tm := DefaultTiming()
	b.Schedule(0, ReadAccess, &tm)
	late := units.FromNanoseconds(1000)
	dataAt, _ := b.Schedule(late, ReadAccess, &tm)
	if dataAt != late+tm.TRCD+tm.TCL+tm.TBurst64 {
		t.Errorf("idle-gap read dataAt = %v", dataAt)
	}
}

func TestWriteRecovery(t *testing.T) {
	var b Bank
	tm := DefaultTiming()
	_, wFree := b.Schedule(0, WriteAccess, &tm)
	var b2 Bank
	_, rFree := b2.Schedule(0, ReadAccess, &tm)
	if wFree <= rFree {
		t.Errorf("write occupancy %v not longer than read %v (tWR missing?)", wFree, rFree)
	}
}

func TestRefresh(t *testing.T) {
	var b Bank
	tm := DefaultTiming()
	freeAt := b.Refresh(0, tm)
	if freeAt != tm.TRFC {
		t.Errorf("refresh freeAt = %v, want %v", freeAt, tm.TRFC)
	}
	if b.Stats().Refreshes != 1 {
		t.Errorf("refresh count = %d", b.Stats().Refreshes)
	}
	// Refresh while busy waits for the bank.
	dataAt, _ := b.Schedule(0, ReadAccess, &tm)
	_ = dataAt
	f2 := b.Refresh(0, tm)
	if f2 < freeAt {
		t.Error("refresh overlapped a busy bank")
	}
}

func TestRefreshInterval(t *testing.T) {
	tm := DefaultTiming()
	if got := RefreshInterval(tm, PhaseNormal); got != tm.TREFI {
		t.Errorf("normal refresh interval = %v", got)
	}
	if got := RefreshInterval(tm, PhaseExtended); got != tm.TREFI/2 {
		t.Errorf("extended refresh interval = %v, want halved", got)
	}
}

// TestBankMonotonicProperty: for any access sequence, freeAt never
// decreases and dataAt always falls within (start, freeAt].
func TestBankMonotonicProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var b Bank
		tm := DefaultTiming()
		now := units.Time(0)
		prevFree := units.Time(0)
		for i := 0; i < int(n%64)+1; i++ {
			now += units.Time(rng.Int63n(int64(50 * units.Nanosecond)))
			kind := AccessKind(rng.Intn(3))
			dataAt, freeAt := b.Schedule(now, kind, &tm)
			if freeAt < prevFree || dataAt <= now || dataAt > freeAt {
				return false
			}
			prevFree = freeAt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDeratedBankIsSlower: scaling timing by the extended-phase factor
// strictly increases occupancy for every access kind.
func TestDeratedBankIsSlower(t *testing.T) {
	tm := DefaultTiming()
	hot := tm.Scale(PhaseExtended.TimingScale())
	for _, k := range []AccessKind{ReadAccess, WriteAccess, PIMAccess} {
		var cool, heated Bank
		_, fc := cool.Schedule(0, k, &tm)
		_, fh := heated.Schedule(0, k, &hot)
		if fh <= fc {
			t.Errorf("%v: derated occupancy %v not longer than nominal %v", k, fh, fc)
		}
	}
}

func TestStatsBusyTime(t *testing.T) {
	var b Bank
	tm := DefaultTiming()
	_, free := b.Schedule(0, ReadAccess, &tm)
	if b.Stats().BusyTime != free {
		t.Errorf("busy time = %v, want %v", b.Stats().BusyTime, free)
	}
}

func TestAccessKindString(t *testing.T) {
	if ReadAccess.String() != "read" || PIMAccess.String() != "pim-rmw" {
		t.Error("AccessKind names wrong")
	}
	if PhaseExtended.String() != "extended(85-95°C)" {
		t.Errorf("phase name = %q", PhaseExtended.String())
	}
}
