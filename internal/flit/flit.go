// Package flit implements the HMC 2.0 packet protocol at FLIT
// granularity. Packets on the HMC serial links are composed of 128-bit
// flow units (FLITs); the request/response FLIT counts of each
// transaction type (Table I of the paper) are what make PIM offloading a
// bandwidth optimization, and the 7-bit error status in each response
// tail (ERRSTAT[6:0]) is the channel through which the cube delivers
// thermal warnings to the host.
package flit

import "fmt"

// FLIT geometry from the HMC 2.0 specification.
const (
	// FlitBits is the size of one flow unit in bits.
	FlitBits = 128
	// FlitBytes is the size of one flow unit in bytes.
	FlitBytes = FlitBits / 8
)

// Command identifies the transaction a request packet carries.
type Command uint8

// Request commands. The PIM (atomic) commands are the HMC 2.0 atomics
// plus the floating-point extensions proposed by GraphPIM, which the
// paper adopts for its GPU workloads.
const (
	CmdInvalid Command = iota
	// Regular memory transactions.
	CmdRead64
	CmdWrite64
	// Arithmetic atomics.
	CmdPIMSignedAdd // signed add immediate to memory operand
	CmdPIMFloatAdd  // GraphPIM extension: FP add
	// Bitwise atomics.
	CmdPIMSwap     // unconditional exchange
	CmdPIMBitWrite // masked bit write
	// Boolean atomics.
	CmdPIMAnd
	CmdPIMOr
	CmdPIMXor
	// Comparison atomics.
	CmdPIMCASEqual   // compare-and-swap if equal
	CmdPIMCASGreater // swap if immediate greater (atomicMax)
	CmdPIMCASLess    // swap if immediate less (atomicMin, GraphPIM ext.)
)

var commandNames = map[Command]string{
	CmdInvalid:       "INVALID",
	CmdRead64:        "READ64",
	CmdWrite64:       "WRITE64",
	CmdPIMSignedAdd:  "PIM_SIGNED_ADD",
	CmdPIMFloatAdd:   "PIM_FLOAT_ADD",
	CmdPIMSwap:       "PIM_SWAP",
	CmdPIMBitWrite:   "PIM_BIT_WRITE",
	CmdPIMAnd:        "PIM_AND",
	CmdPIMOr:         "PIM_OR",
	CmdPIMXor:        "PIM_XOR",
	CmdPIMCASEqual:   "PIM_CAS_EQUAL",
	CmdPIMCASGreater: "PIM_CAS_GREATER",
	CmdPIMCASLess:    "PIM_CAS_LESS",
}

func (c Command) String() string {
	if s, ok := commandNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Command(%d)", uint8(c))
}

// IsPIM reports whether the command is an in-memory (PIM) atomic.
func (c Command) IsPIM() bool {
	return c >= CmdPIMSignedAdd && c <= CmdPIMCASLess
}

// PIMClass is the paper's Table III taxonomy of PIM instructions.
type PIMClass uint8

// PIM instruction classes.
const (
	ClassNone PIMClass = iota
	ClassArithmetic
	ClassBitwise
	ClassBoolean
	ClassComparison
)

func (c PIMClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassArithmetic:
		return "arithmetic"
	case ClassBitwise:
		return "bitwise"
	case ClassBoolean:
		return "boolean"
	case ClassComparison:
		return "comparison"
	}
	return fmt.Sprintf("PIMClass(%d)", uint8(c))
}

// Class returns the Table III class of a PIM command, or ClassNone for
// regular memory transactions.
func (c Command) Class() PIMClass {
	switch c {
	case CmdPIMSignedAdd, CmdPIMFloatAdd:
		return ClassArithmetic
	case CmdPIMSwap, CmdPIMBitWrite:
		return ClassBitwise
	case CmdPIMAnd, CmdPIMOr, CmdPIMXor:
		return ClassBoolean
	case CmdPIMCASEqual, CmdPIMCASGreater, CmdPIMCASLess:
		return ClassComparison
	}
	return ClassNone
}

// CUDAAtomic returns the host (CUDA) atomic function each PIM command
// maps to, per Table III. Both throttling mechanisms rely on this
// mapping: SW-DynT compiles a shadow non-PIM kernel from it, and HW-DynT
// translates PIM instructions at decode. Regular commands return "".
func (c Command) CUDAAtomic() string {
	switch c {
	case CmdPIMSignedAdd, CmdPIMFloatAdd:
		return "atomicAdd"
	case CmdPIMSwap, CmdPIMBitWrite:
		return "atomicExch"
	case CmdPIMAnd:
		return "atomicAnd"
	case CmdPIMOr:
		return "atomicOr"
	case CmdPIMXor:
		return "atomicXor"
	case CmdPIMCASEqual:
		return "atomicCAS"
	case CmdPIMCASGreater:
		return "atomicMax"
	case CmdPIMCASLess:
		return "atomicMin"
	}
	return ""
}

// RequestFlits returns the number of FLITs the request packet of a
// transaction occupies on the link (Table I).
func RequestFlits(c Command) int {
	switch {
	case c == CmdRead64:
		return 1 // header+tail only
	case c == CmdWrite64:
		return 5 // header+tail + 64B payload (4 FLITs)
	case c.IsPIM():
		return 2 // header+tail + 16B immediate
	}
	panic(flitsError{c, false})
}

// ResponseFlits returns the number of FLITs the response packet of a
// transaction occupies on the link (Table I).
func ResponseFlits(c Command, withReturn bool) int {
	switch {
	case c == CmdRead64:
		return 5
	case c == CmdWrite64:
		return 1
	case c.IsPIM():
		if withReturn {
			return 2 // original data returned with the response
		}
		return 1
	}
	panic(flitsError{c, true})
}

// flitsError is the panic value of RequestFlits and ResponseFlits: a
// command with no packet format. It formats its message only when
// printed; a fmt.Sprintf in either function would push it past the
// inliner's budget, and both run on every cube request (DESIGN.md §8b).
type flitsError struct {
	c        Command
	response bool // raised by ResponseFlits, else by RequestFlits
}

func (e flitsError) Error() string {
	fn := "RequestFlits"
	if e.response {
		fn = "ResponseFlits"
	}
	return fmt.Sprintf("flit: %s(%v)", fn, e.c)
}

// ErrStat is the 7-bit error status field in a response packet tail
// (ERRSTAT[6:0]).
type ErrStat uint8

// ErrThermalWarning is raised when the cube exceeds its warning
// temperature; the HMC 2.0 spec encodes it as 0x01.
const ErrThermalWarning ErrStat = 0x01

// Request is a transaction request packet as seen by the link layer.
type Request struct {
	Tag        uint64  // host transaction tag, echoed in the response
	Cmd        Command // transaction command
	Addr       uint64  // target DRAM address
	WithReturn bool    // PIM commands: response carries original data
	Imm        uint64  // PIM commands: immediate operand (raw bits)
	Imm2       uint64  // CAS-equal: compare value
}

// Flits returns the link occupancy of the request packet.
func (r *Request) Flits() int { return RequestFlits(r.Cmd) }

// Response is a transaction response packet.
type Response struct {
	Tag        uint64
	Cmd        Command
	WithReturn bool    // PIM: response carries the original data
	ErrStat    ErrStat // tail error status (thermal warning channel)
	Atomic     bool    // PIM: whether the atomic operation succeeded
	Data       uint64  // PIM with return: original memory operand
}

// Flits returns the link occupancy of the response packet.
func (r *Response) Flits() int { return ResponseFlits(r.Cmd, r.WithReturn) }

// ThermalWarning reports whether the response carries the thermal
// warning error status.
func (r *Response) ThermalWarning() bool { return r.ErrStat == ErrThermalWarning }

// PIMCommands lists every PIM command, in declaration order. Useful for
// table generation and exhaustive tests.
func PIMCommands() []Command {
	return []Command{
		CmdPIMSignedAdd, CmdPIMFloatAdd,
		CmdPIMSwap, CmdPIMBitWrite,
		CmdPIMAnd, CmdPIMOr, CmdPIMXor,
		CmdPIMCASEqual, CmdPIMCASGreater, CmdPIMCASLess,
	}
}
