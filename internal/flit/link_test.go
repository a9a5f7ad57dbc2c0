package flit

import "testing"

func TestLinkCountersTableI(t *testing.T) {
	var lc LinkCounters
	lc.AddPacket(RequestFlits(CmdRead64))         // 1 FLIT
	lc.AddPacket(ResponseFlits(CmdRead64, false)) // 5 FLITs
	lc.AddPacket(RequestFlits(CmdWrite64))        // 5 FLITs
	lc.AddPacket(RequestFlits(CmdPIMSignedAdd))
	lc.AddPacket(ResponseFlits(CmdPIMSignedAdd, true)) // 2 + 2 FLITs

	if lc.Packets != 5 {
		t.Fatalf("Packets = %d, want 5", lc.Packets)
	}
	wantFlits := uint64(1 + 5 + 5 + 2 + 2)
	if lc.Flits != wantFlits {
		t.Fatalf("Flits = %d, want %d", lc.Flits, wantFlits)
	}
	if lc.Bytes != wantFlits*FlitBytes {
		t.Fatalf("Bytes = %d, want %d", lc.Bytes, wantFlits*FlitBytes)
	}
}
