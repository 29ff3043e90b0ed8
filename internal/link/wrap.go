package link

import (
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cpu"
)

// Op names one command of the Link surface.
type Op uint8

// The Link commands, in interface order. Close is not an Op: every layer
// passes it straight through.
const (
	OpReadMem Op = iota
	OpWriteMem
	OpSetBreakpoint
	OpClearBreakpoint
	OpContinue
	OpReset
	OpPowerCycle
	OpFlashErase
	OpFlashWrite
	OpDrainCov
	OpWriteMemContinue
	OpSnapshot
	OpRestoreSnapshot
	OpDrainUART
	OpBoardState
)

var opNames = [...]string{
	OpReadMem:          "ReadMem",
	OpWriteMem:         "WriteMem",
	OpSetBreakpoint:    "SetBreakpoint",
	OpClearBreakpoint:  "ClearBreakpoint",
	OpContinue:         "Continue",
	OpReset:            "Reset",
	OpPowerCycle:       "PowerCycle",
	OpFlashErase:       "FlashErase",
	OpFlashWrite:       "FlashWrite",
	OpDrainCov:         "DrainCov",
	OpWriteMemContinue: "WriteMemContinue",
	OpSnapshot:         "Snapshot",
	OpRestoreSnapshot:  "RestoreSnapshot",
	OpDrainUART:        "DrainUART",
	OpBoardState:       "BoardState",
}

// String returns the Link method name, the form journals and CmdStat use.
func (o Op) String() string { return opNames[o] }

// Cmd describes one command on its way through a middleware layer.
type Cmd struct {
	Op Op
	// Addr is the breakpoint address of SetBreakpoint and ClearBreakpoint,
	// zero for every other command.
	Addr uint64
}

// String returns the command's name, as Op.String does.
func (c Cmd) String() string { return c.Op.String() }

// Wrap returns a Link that runs every command through around. around
// receives the command and a call that forwards it to inner, storing the
// results where the caller will return them; around may run code before
// and after call, call it several times (a retry), or not at all and
// return its own error (a dropped frame). Close passes straight through.
//
// Wrap is the one forwarding implementation of the Link surface: session
// retries, metrics, fault injection, the engine's board-time accounting and
// the emulated backend's cost model are each just an around function.
func Wrap(inner Link, around func(c Cmd, call func() error) error) Link {
	return &wrapped{inner: inner, around: around}
}

type wrapped struct {
	inner  Link
	around func(Cmd, func() error) error
}

func (w *wrapped) ReadMem(addr uint64, n int) (data []byte, err error) {
	err = w.around(Cmd{Op: OpReadMem}, func() error {
		data, err = w.inner.ReadMem(addr, n)
		return err
	})
	return data, err
}

func (w *wrapped) WriteMem(addr uint64, data []byte) error {
	return w.around(Cmd{Op: OpWriteMem}, func() error { return w.inner.WriteMem(addr, data) })
}

func (w *wrapped) SetBreakpoint(addr uint64) error {
	return w.around(Cmd{Op: OpSetBreakpoint, Addr: addr}, func() error { return w.inner.SetBreakpoint(addr) })
}

func (w *wrapped) ClearBreakpoint(addr uint64) error {
	return w.around(Cmd{Op: OpClearBreakpoint, Addr: addr}, func() error { return w.inner.ClearBreakpoint(addr) })
}

func (w *wrapped) Continue(budget int64) (st cpu.Stop, err error) {
	err = w.around(Cmd{Op: OpContinue}, func() error {
		st, err = w.inner.Continue(budget)
		return err
	})
	return st, err
}

func (w *wrapped) Reset() error {
	return w.around(Cmd{Op: OpReset}, w.inner.Reset)
}

func (w *wrapped) PowerCycle() error {
	return w.around(Cmd{Op: OpPowerCycle}, w.inner.PowerCycle)
}

func (w *wrapped) FlashErase(off, n int) error {
	return w.around(Cmd{Op: OpFlashErase}, func() error { return w.inner.FlashErase(off, n) })
}

func (w *wrapped) FlashWrite(off int, data []byte) error {
	return w.around(Cmd{Op: OpFlashWrite}, func() error { return w.inner.FlashWrite(off, data) })
}

func (w *wrapped) DrainCov(addr uint64, maxEntries int) (entries []uint32, lost uint32, err error) {
	err = w.around(Cmd{Op: OpDrainCov}, func() error {
		entries, lost, err = w.inner.DrainCov(addr, maxEntries)
		return err
	})
	return entries, lost, err
}

func (w *wrapped) WriteMemContinue(addr uint64, data []byte, budget int64) (st cpu.Stop, err error) {
	err = w.around(Cmd{Op: OpWriteMemContinue}, func() error {
		st, err = w.inner.WriteMemContinue(addr, data, budget)
		return err
	})
	return st, err
}

func (w *wrapped) Snapshot() error {
	return w.around(Cmd{Op: OpSnapshot}, w.inner.Snapshot)
}

func (w *wrapped) RestoreSnapshot() (st board.RestoreStats, err error) {
	err = w.around(Cmd{Op: OpRestoreSnapshot}, func() error {
		st, err = w.inner.RestoreSnapshot()
		return err
	})
	return st, err
}

func (w *wrapped) DrainUART() (lines []string, err error) {
	err = w.around(Cmd{Op: OpDrainUART}, func() error {
		lines, err = w.inner.DrainUART()
		return err
	})
	return lines, err
}

func (w *wrapped) BoardState() (st board.State, boots int, lastBoot string, err error) {
	err = w.around(Cmd{Op: OpBoardState}, func() error {
		st, boots, lastBoot, err = w.inner.BoardState()
		return err
	})
	return st, boots, lastBoot, err
}

func (w *wrapped) Close() error { return w.inner.Close() }
