package flit

import (
	"fmt"
	"testing"
)

// totalFlits returns request+response FLITs for a transaction.
func totalFlits(c Command, withReturn bool) int {
	return RequestFlits(c) + ResponseFlits(c, withReturn)
}

// TestTable1 pins the exact FLIT accounting of the paper's Table I.
func TestTable1(t *testing.T) {
	cases := []struct {
		name       string
		cmd        Command
		withReturn bool
		req, resp  int
	}{
		{"64-byte READ", CmdRead64, false, 1, 5},
		{"64-byte WRITE", CmdWrite64, false, 5, 1},
		{"PIM inst. without return", CmdPIMSignedAdd, false, 2, 1},
		{"PIM inst. with return", CmdPIMSignedAdd, true, 2, 2},
	}
	for _, c := range cases {
		if got := RequestFlits(c.cmd); got != c.req {
			t.Errorf("%s: request = %d FLITs, want %d", c.name, got, c.req)
		}
		if got := ResponseFlits(c.cmd, c.withReturn); got != c.resp {
			t.Errorf("%s: response = %d FLITs, want %d", c.name, got, c.resp)
		}
	}
}

func TestFlitGeometry(t *testing.T) {
	if FlitBits != 128 || FlitBytes != 16 {
		t.Errorf("FLIT = %d bits / %d bytes, want 128/16", FlitBits, FlitBytes)
	}
	// A 64-byte payload is exactly 4 FLITs, hence WRITE64 = 1+4 = 5.
	if got := RequestFlits(CmdWrite64); got != 1+64/FlitBytes {
		t.Errorf("WRITE64 request = %d FLITs, want header+tail plus %d payload FLITs", got, 64/FlitBytes)
	}
}

func TestAllPIMCommandsShareTable1Counts(t *testing.T) {
	for _, cmd := range PIMCommands() {
		for _, wr := range []bool{false, true} {
			if got := RequestFlits(cmd); got != 2 {
				t.Errorf("%v request = %d FLITs, want 2", cmd, got)
			}
			want := 1
			if wr {
				want = 2
			}
			if got := ResponseFlits(cmd, wr); got != want {
				t.Errorf("%v(return=%v) response = %d FLITs, want %d", cmd, wr, got, want)
			}
		}
	}
}

func TestIsPIM(t *testing.T) {
	if CmdRead64.IsPIM() || CmdWrite64.IsPIM() || CmdInvalid.IsPIM() {
		t.Error("regular command classified as PIM")
	}
	for _, cmd := range PIMCommands() {
		if !cmd.IsPIM() {
			t.Errorf("%v not classified as PIM", cmd)
		}
	}
}

// TestTable3Mapping pins the Table III PIM -> CUDA atomic mapping.
func TestTable3Mapping(t *testing.T) {
	want := map[Command]struct {
		class PIMClass
		cuda  string
	}{
		CmdPIMSignedAdd:  {ClassArithmetic, "atomicAdd"},
		CmdPIMFloatAdd:   {ClassArithmetic, "atomicAdd"},
		CmdPIMSwap:       {ClassBitwise, "atomicExch"},
		CmdPIMBitWrite:   {ClassBitwise, "atomicExch"},
		CmdPIMAnd:        {ClassBoolean, "atomicAnd"},
		CmdPIMOr:         {ClassBoolean, "atomicOr"},
		CmdPIMXor:        {ClassBoolean, "atomicXor"},
		CmdPIMCASEqual:   {ClassComparison, "atomicCAS"},
		CmdPIMCASGreater: {ClassComparison, "atomicMax"},
		CmdPIMCASLess:    {ClassComparison, "atomicMin"},
	}
	for cmd, w := range want {
		if got := cmd.Class(); got != w.class {
			t.Errorf("%v class = %v, want %v", cmd, got, w.class)
		}
		if got := cmd.CUDAAtomic(); got != w.cuda {
			t.Errorf("%v CUDA mapping = %q, want %q", cmd, got, w.cuda)
		}
	}
	if CmdRead64.CUDAAtomic() != "" || CmdRead64.Class() != ClassNone {
		t.Error("READ64 has a PIM mapping")
	}
}

func TestPacketSizes(t *testing.T) {
	req := &Request{Cmd: CmdWrite64}
	if req.Flits() != 5 || req.Flits()*FlitBytes != 80 {
		t.Errorf("WRITE64 request = %d FLITs / %d bytes, want 5/80", req.Flits(), req.Flits()*FlitBytes)
	}
	resp := &Response{Cmd: CmdPIMSignedAdd, WithReturn: true}
	if resp.Flits() != 2 || resp.Flits()*FlitBytes != 32 {
		t.Errorf("PIM w/return response = %d FLITs / %d bytes, want 2/32", resp.Flits(), resp.Flits()*FlitBytes)
	}
}

func TestThermalWarning(t *testing.T) {
	r := &Response{Cmd: CmdRead64, ErrStat: ErrThermalWarning}
	if !r.ThermalWarning() {
		t.Error("ERRSTAT=0x01 not reported as thermal warning")
	}
	r.ErrStat = 0
	if r.ThermalWarning() {
		t.Error("ERRSTAT=0x00 reported as thermal warning")
	}
	if ErrThermalWarning != 0x01 {
		t.Errorf("thermal warning encoding = %#x, want 0x01", uint8(ErrThermalWarning))
	}
}

// TestBandwidthSaving checks the paper's "up to 50%" bandwidth saving
// claim: a PIM op (3 FLITs) replaces a 64-byte round trip (6 FLITs).
func TestBandwidthSaving(t *testing.T) {
	saving := func(withReturn bool) float64 {
		return 1 - float64(totalFlits(CmdPIMSignedAdd, withReturn))/float64(totalFlits(CmdRead64, false))
	}
	if got := saving(false); got != 0.5 {
		t.Errorf("no-return saving = %v, want 0.5", got)
	}
	// With return: 4 FLITs vs 6 -> 1/3 saving.
	if got := saving(true); got < 0.33 || got > 0.34 {
		t.Errorf("with-return saving = %v, want ~1/3", got)
	}
}

// TestFlitCountsPositive is a property over all valid commands: every
// packet occupies at least one FLIT and requests never exceed 5 FLITs.
func TestFlitCountsPositive(t *testing.T) {
	cmds := append(PIMCommands(), CmdRead64, CmdWrite64)
	for _, cmd := range cmds {
		for _, wr := range []bool{false, true} {
			req, resp := RequestFlits(cmd), ResponseFlits(cmd, wr)
			if req < 1 || resp < 1 {
				t.Errorf("%v has empty packet: req=%d resp=%d", cmd, req, resp)
			}
			if req > 5 || resp > 5 {
				t.Errorf("%v exceeds max packet size: req=%d resp=%d", cmd, req, resp)
			}
		}
	}
}

// TestRequestFlitsPanicsOnInvalid checks that both FLIT-count helpers
// reject a command without a packet format, and that the typed panic
// value prints the message the formatted string it replaced did.
func TestRequestFlitsPanicsOnInvalid(t *testing.T) {
	for _, tc := range []struct {
		fn   func()
		want string
	}{
		{func() { RequestFlits(CmdInvalid) }, "flit: RequestFlits(INVALID)"},
		{func() { ResponseFlits(Command(99), true) }, "flit: ResponseFlits(Command(99))"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: no panic", tc.want)
				} else if got := fmt.Sprint(r); got != tc.want {
					t.Errorf("panicked with %q, want %q", got, tc.want)
				}
			}()
			tc.fn()
		}()
	}
}

func TestStringNames(t *testing.T) {
	if CmdPIMSignedAdd.String() != "PIM_SIGNED_ADD" {
		t.Errorf("name = %q", CmdPIMSignedAdd.String())
	}
	if Command(99).String() != "Command(99)" {
		t.Errorf("unknown command name = %q", Command(99).String())
	}
	if ClassComparison.String() != "comparison" {
		t.Errorf("class name = %q", ClassComparison.String())
	}
}
