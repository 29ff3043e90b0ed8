package link

import (
	"math/rand"
	"time"

	"github.com/eof-fuzz/eof/internal/vtime"
)

// FaultConfig parameterises deterministic link-fault injection. Rates are
// per-command probabilities; one uniform draw per command selects at most
// one fault, so Drop+Corrupt+Stall+Delay must not exceed 1.
type FaultConfig struct {
	// Drop is the probability the frame is lost on the wire.
	Drop float64
	// Corrupt is the probability the frame fails its checksum and the
	// probe discards it unexecuted.
	Corrupt float64
	// Stall is the probability the adapter dies; subsequent commands fail
	// until Revive (the session's reconnect) power-cycles it.
	Stall float64
	// Delay is the probability a command is slowed by DelayBy without
	// failing.
	Delay float64
	// DelayBy is the extra virtual latency of a delayed command.
	DelayBy time.Duration
	// Penalty is the virtual time a failed command burns before the host
	// notices (the adapter's detection timeout). Zero uses DefaultPenalty.
	Penalty time.Duration
	// Seed makes the fault sequence deterministic. Engines default a zero
	// Seed to the campaign seed, so fleet shards draw distinct sequences.
	Seed int64
}

// DefaultPenalty approximates a USB adapter's frame timeout.
const DefaultPenalty = 50 * time.Millisecond

// Enabled reports whether any fault can ever fire.
func (c FaultConfig) Enabled() bool {
	return c.Drop > 0 || c.Corrupt > 0 || c.Stall > 0 || c.Delay > 0
}

// Profile returns a mixed flaky-adapter profile with the given total
// per-command fault rate: 60% frame drops, 20% corrupt frames, 10% late
// frames, 10% adapter stalls. This is the shape behind the -link-faults
// flag and the E-link ablation.
func Profile(rate float64, seed int64) FaultConfig {
	if rate <= 0 {
		return FaultConfig{Seed: seed}
	}
	return FaultConfig{
		Drop:    0.6 * rate,
		Corrupt: 0.2 * rate,
		Delay:   0.1 * rate,
		Stall:   0.1 * rate,
		DelayBy: 20 * time.Millisecond,
		Seed:    seed,
	}
}

// Injector is the flaky-adapter middleware: it deterministically drops,
// corrupts, delays or stalls commands on their way to the inner transport.
// It sits below the session layer, which absorbs everything it injects.
type Injector struct {
	// Link is the forwarding view: every command runs through around.
	Link
	cfg     FaultConfig
	rnd     *rand.Rand
	clock   *vtime.Clock
	stalled bool
	counts  [4]int64 // indexed by FaultKind
	onFault func(FaultKind, string)
}

// SetOnFault installs a callback fired once per freshly injected fault (not
// for commands rejected because the adapter is already stalled). The engine
// journals these as link-fault trace events.
func (f *Injector) SetOnFault(fn func(k FaultKind, cmd string)) { f.onFault = fn }

func (f *Injector) notify(k FaultKind, cmd string) {
	if f.onFault != nil {
		f.onFault(k, cmd)
	}
}

// NewInjector wraps inner with fault injection. clock (optional) is charged
// the detection penalty of failed commands and the extra latency of delayed
// ones, so injected faults cost campaign time like real ones.
func NewInjector(inner Link, cfg FaultConfig, clock *vtime.Clock) *Injector {
	if cfg.Penalty <= 0 {
		cfg.Penalty = DefaultPenalty
	}
	f := &Injector{
		cfg:   cfg,
		rnd:   rand.New(rand.NewSource(cfg.Seed ^ 0xFA017)),
		clock: clock,
	}
	f.Link = Wrap(inner, f.around)
	return f
}

// Revive power-cycles the adapter after a stall; the session's reconnect
// path calls it before re-arming breakpoints.
func (f *Injector) Revive() { f.stalled = false }

// StallNow kills the adapter immediately (a yanked cable), regardless of
// the configured rates. Tests use it to exercise the reconnect path
// deterministically.
func (f *Injector) StallNow() { f.stalled = true }

// Stalled reports whether the adapter is currently dead.
func (f *Injector) Stalled() bool { return f.stalled }

// Injected returns how many faults of kind k have fired so far.
func (f *Injector) Injected(k FaultKind) int64 { return f.counts[k] }

func (f *Injector) charge(d time.Duration) {
	if f.clock != nil {
		f.clock.Advance(d)
	}
}

// before draws this command's fate. A non-nil error means the command must
// not be forwarded; the fault has already been charged to the clock.
func (f *Injector) before(cmd string) error {
	if f.stalled {
		f.charge(f.cfg.Penalty)
		return &FaultError{Kind: FaultStall, Cmd: cmd}
	}
	if !f.cfg.Enabled() {
		return nil
	}
	r := f.rnd.Float64()
	switch {
	case r < f.cfg.Drop:
		f.counts[FaultDrop]++
		f.charge(f.cfg.Penalty)
		f.notify(FaultDrop, cmd)
		return &FaultError{Kind: FaultDrop, Cmd: cmd}
	case r < f.cfg.Drop+f.cfg.Corrupt:
		f.counts[FaultCorrupt]++
		f.charge(f.cfg.Penalty)
		f.notify(FaultCorrupt, cmd)
		return &FaultError{Kind: FaultCorrupt, Cmd: cmd}
	case r < f.cfg.Drop+f.cfg.Corrupt+f.cfg.Stall:
		f.counts[FaultStall]++
		f.stalled = true
		f.charge(f.cfg.Penalty)
		f.notify(FaultStall, cmd)
		return &FaultError{Kind: FaultStall, Cmd: cmd}
	case r < f.cfg.Drop+f.cfg.Corrupt+f.cfg.Stall+f.cfg.Delay:
		f.counts[FaultDelay]++
		f.charge(f.cfg.DelayBy)
		f.notify(FaultDelay, cmd)
		return nil
	}
	return nil
}

// around lets a command through only if before draws no failure for it.
func (f *Injector) around(c Cmd, call func() error) error {
	if err := f.before(c.String()); err != nil {
		return err
	}
	return call()
}

var _ Link = (*Injector)(nil)
