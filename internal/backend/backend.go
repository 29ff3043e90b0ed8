// Package backend abstracts the execution substrate a fuzzing engine drives:
// provisioning, boot and a link.Link transport for exec, coverage drain and
// snapshot/restore, tagged with a capability class. Two implementations
// exist, and both speak the debug server's command semantics (the typed
// methods of ocd.Server, written once):
//
//   - Hardware: the board model behind ocd.ConnectDirect, so every command
//     is RSP-encoded, served by ocd.Server.handle and charged the adapter
//     latency model.
//   - Emulated: the same typed methods called in process against the VM's
//     board through link.Wrap, charging one emul.OpCost per command, with
//     Reset and PowerCycle swapped for the VM's image-reload reset.
//
// The engine composes its middleware stack (fault injector, metrics,
// session, timing) on top of whatever transport the backend connects, so
// watchdogs, restoration ladder and accounting work identically on both
// substrates — only the cost model and the reachable peripheral surface
// differ, which is exactly the tiered fleet's trade.
package backend

import (
	"fmt"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/ocd"
	"github.com/eof-fuzz/eof/internal/osinfo"
	"github.com/eof-fuzz/eof/internal/vtime"
)

// Class is a backend's capability class: what kind of substrate executes the
// target, and therefore how trustworthy its findings are.
type Class uint8

const (
	// HW is real (modelled) hardware behind a debug probe: slow, but every
	// peripheral is present and every finding is ground truth.
	HW Class = iota
	// Emul is an emulated VM: orders of magnitude cheaper per exec, but
	// unmodelled peripherals make its coverage and crashes provisional until
	// a hardware board confirms them.
	Emul
)

func (c Class) String() string {
	if c == Emul {
		return "emul"
	}
	return "hw"
}

// Env is everything a factory needs to stand up a backend. The engine owns
// the clock and the images; the backend owns the board and the transport.
type Env struct {
	Info   *osinfo.Info
	Spec   *board.Spec
	Images *osinfo.Images
	Clock  *vtime.Clock
	// Latency is the debug-adapter cost model (hardware backends only).
	Latency ocd.Latency
	// Degrade configures the board degradation model. Emulated backends
	// ignore it: a VM reloaded from a host-side file cannot wear out.
	Degrade board.DegradeConfig
}

// Backend is one execution substrate instance, owned by one engine.
type Backend interface {
	// Class reports the substrate's capability class.
	Class() Class
	// Board exposes the underlying board model for health/degradation
	// inspection and tests; the fuzzing loop itself speaks Connect's link.
	Board() *board.Board
	// Provision writes the pristine images into the target's flash.
	Provision() error
	// Boot cold-boots the provisioned target once (retry policy stays with
	// the engine, which owns health accounting).
	Boot() error
	// Connect returns the transport the engine's link middleware wraps.
	Connect() link.Link
	// Close releases the substrate.
	Close() error
}

// Factory builds a backend from an environment. core.Config carries one;
// nil selects Hardware.
type Factory func(Env) (Backend, error)

// Hardware returns the factory for the classic debug-probe stack: board
// model, in-process debug server with the adapter latency model, direct
// client transport.
func Hardware() Factory {
	return func(env Env) (Backend, error) {
		table, err := env.Info.PartTable()
		if err != nil {
			return nil, err
		}
		brd, err := board.New(env.Spec, table, env.Info.Builder, env.Clock)
		if err != nil {
			return nil, err
		}
		if env.Degrade.Enabled() {
			brd.SetDegrade(env.Degrade)
		}
		return &hwBackend{env: env, brd: brd}, nil
	}
}

type hwBackend struct {
	env Env
	brd *board.Board
	srv *ocd.Server
}

func (b *hwBackend) Class() Class        { return HW }
func (b *hwBackend) Board() *board.Board { return b.brd }

func (b *hwBackend) Provision() error {
	tab := b.brd.PartitionTable()
	for _, part := range []struct {
		name string
		data []byte
	}{{"bootloader", b.env.Images.Boot}, {"kernel", b.env.Images.Kernel}} {
		if tab.Lookup(part.name) == nil {
			return fmt.Errorf("backend: partition %q missing", part.name)
		}
		if err := b.brd.Provision(part.name, part.data); err != nil {
			return err
		}
	}
	return nil
}

func (b *hwBackend) Boot() error { return b.brd.Boot() }

func (b *hwBackend) Connect() link.Link {
	b.srv = ocd.NewServer(b.brd, b.env.Latency)
	return ocd.ConnectDirect(b.srv)
}

// Server exposes the debug server after Connect, for tests that poke probe
// capabilities (e.g. forcing the legacy command set).
func (b *hwBackend) Server() *ocd.Server { return b.srv }

func (b *hwBackend) Close() error {
	if b.brd.State() == board.On {
		b.brd.Core().Kill()
	}
	return nil
}
