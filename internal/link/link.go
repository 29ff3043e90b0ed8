// Package link layers the host side of the debug channel. The JTAG/SWD port
// is the paper's single control-and-observation channel, and it is narrow
// and failure-prone: adapters drop frames, probes wedge, cables die
// mid-campaign. This package makes that boundary an explicit, instrumentable
// interface (Link, 15 commands plus Close) and stacks middleware on top of
// the raw transport. Every layer is the one forwarding type Wrap builds,
// parameterised by an around function that runs code around each command
// (a Cmd: the command's Op plus, for breakpoints, its address):
//
//	engine (internal/core)
//	   │ Link interface
//	   ▼
//	timing      — the engine's board-time accounting (core, Engine.timeCmd)
//	   ▼
//	Session     — bounded retry with backoff; on link death reconnects,
//	   │          re-arms the shadowed breakpoint set and re-detects
//	   │          vectored-command support (Stats.LinkRetries/LinkReconnects)
//	   ▼
//	Metrics     — atomic round-trip counters and per-command latency
//	   │          histograms
//	   ▼
//	Injector    — deterministic, seeded fault injection: drop, corrupt,
//	   │          delay, stall (absent when -link-faults is off)
//	   ▼
//	transport   — *ocd.Client over the RSP wire or the in-process dispatch
//	              (hardware), or the ocd server's typed command methods
//	              wrapped with an OpCost charge (emulation)
//
// Error taxonomy, bottom-up: remote errors (ocd.RemoteError, typed ocd.Code)
// and ocd.ErrTimeout describe *target* state — the command was delivered and
// answered, retrying it verbatim cannot change the answer — so they pass
// through every layer untouched and feed the engine's watchdog/restore
// machinery. Link faults (*FaultError) describe *channel* state — the
// command never executed — so the session absorbs them: drop/corrupt/delay
// are transient (retry), stall is link death (reconnect, then retry). Only
// when retries or reconnects are exhausted does the session surface the
// failure, wrapped as ocd.ErrTimeout so Algorithm 1's connection-timeout
// watchdog takes over exactly as for a dead target.
package link

import (
	"fmt"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/ocd"
)

// Link is the full debug-command surface of the probe. *ocd.Client is the
// wire transport; Session, Metrics and Injector wrap any Link through Wrap,
// so layers compose in any order and tests can substitute scripted fakes.
type Link interface {
	// ReadMem reads n bytes of target memory at addr.
	ReadMem(addr uint64, n int) ([]byte, error)
	// WriteMem writes data into target memory at addr.
	WriteMem(addr uint64, data []byte) error
	// SetBreakpoint arms a hardware breakpoint at addr.
	SetBreakpoint(addr uint64) error
	// ClearBreakpoint disarms the breakpoint at addr.
	ClearBreakpoint(addr uint64) error
	// Continue resumes the target with a step budget and returns the stop.
	Continue(budget int64) (cpu.Stop, error)
	// Reset warm-resets the board.
	Reset() error
	// PowerCycle drops board power and cold-boots — slower than Reset, but
	// it clears marginal conditions a warm reset cannot. Older probe
	// firmware answers Ebadcmd; callers fall back to Reset.
	PowerCycle() error
	// FlashErase erases the flash range [off, off+n).
	FlashErase(off, n int) error
	// FlashWrite programs data at flash offset off.
	FlashWrite(off int, data []byte) error
	// DrainCov atomically reads and clears the coverage buffer (vectored).
	DrainCov(addr uint64, maxEntries int) (entries []uint32, lost uint32, err error)
	// WriteMemContinue coalesces a mailbox write with a resume (vectored).
	WriteMemContinue(addr uint64, data []byte, budget int64) (cpu.Stop, error)
	// Snapshot captures the board's golden state probe-side (vectored).
	Snapshot() error
	// RestoreSnapshot rolls the board back to the cached snapshot, shipping
	// only the dirty delta in one round trip (vectored).
	RestoreSnapshot() (board.RestoreStats, error)
	// DrainUART returns console lines emitted since the previous drain.
	DrainUART() ([]string, error)
	// BoardState queries power/liveness state, boot count and boot error.
	BoardState() (st board.State, boots int, lastBoot string, err error)
	// Close detaches from the probe.
	Close() error
}

// The transport must cover the full command surface.
var _ Link = (*ocd.Client)(nil)

// FaultKind classifies an injected link fault.
type FaultKind int

// Fault kinds, in injection-draw order.
const (
	// FaultDrop: the frame was lost on the wire; the command never reached
	// the probe. Transient — a retry delivers it.
	FaultDrop FaultKind = iota
	// FaultCorrupt: the frame failed its checksum and the probe discarded
	// it before execution (RSP NAKs bad frames). Transient — retry-safe
	// because the command was never executed.
	FaultCorrupt
	// FaultStall: the adapter died (wedged firmware, yanked cable). Every
	// subsequent command fails until the session power-cycles the adapter
	// via its Reconnect hook.
	FaultStall
	// FaultDelay: the frame arrived late. No error is returned — the
	// injector charges extra virtual latency and forwards the command.
	FaultDelay
)

func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultCorrupt:
		return "corrupt"
	case FaultStall:
		return "stall"
	case FaultDelay:
		return "delay"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// FaultError is an injected link-level failure. The faulted command was
// never executed by the probe, so retrying it is always safe.
type FaultError struct {
	Kind FaultKind
	Cmd  string // command name, e.g. "Continue"
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("link: injected %s fault on %s", e.Kind, e.Cmd)
}

// Transient reports whether the fault clears on its own (retry suffices);
// a stall needs a reconnect first.
func (e *FaultError) Transient() bool { return e.Kind != FaultStall }
