package flit

// LinkCounters accumulates the transaction-level occupancy of one
// directed serial link: packets forwarded, FLITs serialized, and wire
// bytes. The multi-cube network keeps one per directed inter-cube link
// (owned by the egress cube's engine domain, so hot-path updates need
// no synchronization); hmcprobe and the per-run Result report them as
// the per-link FLIT occupancy table.
type LinkCounters struct {
	Packets uint64
	Flits   uint64
	Bytes   uint64
}

// AddPacket records one packet of n FLITs crossing the link.
//
//coolpim:hotpath
func (lc *LinkCounters) AddPacket(n int) {
	lc.Packets++
	lc.Flits += uint64(n)
	lc.Bytes += uint64(n) * FlitBytes
}
