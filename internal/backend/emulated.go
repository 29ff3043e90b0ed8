package backend

import (
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/emul"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/ocd"
	"github.com/eof-fuzz/eof/internal/osinfo"
)

// Emulated returns the factory for the emulation substrate: VM facilities
// behind the same link contract the hardware probe speaks. Every command
// costs one emul.OpCost instead of an adapter round trip, and a restore is a
// cheap VM reset from the host-side image, so a recovery never escalates and
// can never brick the target.
func Emulated() Factory {
	return func(env Env) (Backend, error) {
		vm, err := emul.NewVM(env.Info, env.Spec, env.Images, env.Clock)
		if err != nil {
			return nil, err
		}
		return &emulBackend{vm: vm}, nil
	}
}

// OpenVM is the one emulated-VM bring-up path outside a campaign engine:
// build images, construct the VM on a private clock and perform the first
// boot. The emulation-bound baselines (Tardis, Gustave) consume it; tiered
// campaigns go through the Emulated factory instead, which shares the
// engine's clock and defers bring-up to engine Setup.
func OpenVM(info *osinfo.Info, spec *board.Spec, instrumented bool) (*emul.VM, error) {
	images, err := info.BuildImages(spec, instrumented)
	if err != nil {
		return nil, err
	}
	vm, err := emul.NewVM(info, spec, images, nil)
	if err != nil {
		return nil, err
	}
	if err := vm.Reset(); err != nil {
		return nil, err
	}
	return vm, nil
}

// EmulSpecFor derives the emulation twin of a hardware board spec: identical
// memory map, clocking and coverage geometry — so images, symbol tables and
// therefore edge IDs are byte-comparable across tiers — but marked emulated,
// with only the serial peripheral QEMU-style machines model. OS code behind
// the unmodelled peripherals takes its ErrNoDev paths here; that runtime
// divergence is exactly what the hardware confirmation tier exists to catch.
func EmulSpecFor(hw *board.Spec) *board.Spec {
	twin := *hw
	twin.Name = hw.Name + "-emul"
	twin.Emulated = true
	// Virtual time on an emulated shard is host wall-clock: the translator
	// retires target blocks HostSpeedup times faster than the MCU, and
	// virtual timers warp past idle ticks instead of waiting them out.
	// Cycle budgets and block costs are untouched, so target-visible
	// behavior — and the coverage a given budget reaches — is unchanged.
	twin.HZ = hw.HZ * emul.HostSpeedup
	twin.IdleWarp = emul.HostSpeedup
	// Software breakpoints are free in an emulator; the comparator scarcity
	// that degrades hardware monitors does not apply.
	twin.MaxBreakpoints = 32
	twin.Peripherals = map[string]bool{"serial": true}
	return &twin
}

type emulBackend struct {
	vm *emul.VM
}

func (b *emulBackend) Class() Class        { return Emul }
func (b *emulBackend) Board() *board.Board { return b.vm.Board() }
func (b *emulBackend) Provision() error    { return b.vm.Provision() }
func (b *emulBackend) Boot() error         { return b.vm.Boot() }
func (b *emulBackend) Close() error        { b.vm.Close(); return nil }

// Connect serves the debug server's typed command methods in process
// against the VM's board, so liveness gating, the error taxonomy and the
// vCovDrain header protocol are the probe's own and the engine's watchdogs,
// fallback latches and recovery ladder behave identically on both
// substrates. Each command charges one emul.OpCost to the shared clock in
// place of the adapter latency model.
func (b *emulBackend) Connect() link.Link {
	probe := vmProbe{Server: ocd.NewServer(b.vm.Board(), ocd.Latency{}), vm: b.vm}
	return link.Wrap(probe, func(_ link.Cmd, call func() error) error {
		b.vm.Clock.Advance(emul.OpCost)
		return call()
	})
}

// vmProbe is the debug server over the VM's board, with the recovery
// commands swapped for the VM's own.
type vmProbe struct {
	*ocd.Server
	vm *emul.VM
}

// Reset and PowerCycle both map to the emulation tier's entire recovery
// ladder: reload the pristine image from the host file and reboot. It cannot
// fail the way a hardware reflash can, so rung escalation never happens here.
func (p vmProbe) Reset() error      { return p.reload() }
func (p vmProbe) PowerCycle() error { return p.reload() }

func (p vmProbe) reload() error {
	if err := p.vm.Reset(); err != nil {
		return ocd.BootError(err)
	}
	return nil
}

func (p vmProbe) Close() error { return nil }
