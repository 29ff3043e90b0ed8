package link

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/eof-fuzz/eof/internal/ocd"
	"github.com/eof-fuzz/eof/internal/vtime"
)

// DefaultRetries is the per-command transparent retry bound when
// SessionConfig leaves MaxRetries at zero.
const DefaultRetries = 4

// DefaultBackoff is the base retry backoff; it doubles per attempt. Real
// hosts back off before re-sending so a congested adapter can drain.
const DefaultBackoff = 2 * time.Millisecond

// SessionConfig parameterises the retry/reconnect layer.
type SessionConfig struct {
	// MaxRetries bounds transparent retries per command (0 = DefaultRetries,
	// negative disables retries entirely).
	MaxRetries int
	// Backoff is the base virtual-time backoff between retries, doubling
	// per attempt (0 = DefaultBackoff).
	Backoff time.Duration
	// Clock is charged the backoff time (optional).
	Clock *vtime.Clock
	// Reconnect revives the transport after link death — on real hardware
	// a probe power-cycle and re-attach, here the injector's Revive. Nil
	// means link death is unrecoverable and surfaces as a timeout.
	Reconnect func() error
	// OnReconnect is notified after a successful reconnect and breakpoint
	// re-arm; the engine uses it to re-latch vectored-command support
	// (the fresh adapter may speak vCovDrain/vRun even if the old one
	// degraded mid-campaign).
	OnReconnect func()
	// OnRetry is notified each time a command is transparently re-sent
	// after a transient fault, with the command name. The engine journals
	// these as link-retry trace events.
	OnRetry func(cmd string)
}

// Session is the retry/reconnect middleware. It absorbs the transient link
// faults the layer below injects (or a real adapter produces): transient
// faults are retried with bounded exponential backoff; a dead link is
// reconnected — the transport revived, the shadowed breakpoint set re-armed
// in sorted address order, the capability latch refreshed — and the command
// retried. Target-level errors (ocd.RemoteError, ocd.ErrTimeout) pass
// through untouched. When retries or reconnects are exhausted the failure
// surfaces wrapped as ocd.ErrTimeout, handing the campaign to the
// connection-timeout watchdog exactly as a dead target would.
type Session struct {
	// Link is the forwarding view: every command runs through around.
	Link
	inner Link
	cfg   SessionConfig

	// bps shadows the armed breakpoint set so a reconnect can restore the
	// target's debug-unit state without engine involvement.
	bps map[uint64]bool

	retries    atomic.Int64
	reconnects atomic.Int64
}

// NewSession wraps inner with retry/reconnect handling.
func NewSession(inner Link, cfg SessionConfig) *Session {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultRetries
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultBackoff
	}
	s := &Session{inner: inner, cfg: cfg, bps: make(map[uint64]bool)}
	s.Link = Wrap(inner, s.around)
	return s
}

// Retries returns how many commands were transparently re-sent.
func (s *Session) Retries() int64 { return s.retries.Load() }

// Reconnects returns how many link deaths were recovered.
func (s *Session) Reconnects() int64 { return s.reconnects.Load() }

// Breakpoints returns the shadowed armed set in ascending address order.
func (s *Session) Breakpoints() []uint64 {
	addrs := make([]uint64, 0, len(s.bps))
	for a := range s.bps {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

func (s *Session) backoff(attempt int) {
	if s.cfg.Clock == nil {
		return
	}
	s.cfg.Clock.Advance(s.cfg.Backoff << (attempt - 1))
}

// do runs op, absorbing link faults. op must be idempotent at the probe —
// guaranteed here because injected faults fire before delivery, so a
// faulted command never executed.
func (s *Session) do(cmd string, op func() error) error {
	attempt, recons := 0, 0
	for {
		err := op()
		var fe *FaultError
		if err == nil || !errors.As(err, &fe) {
			return err // success, or target truth the layers above must see
		}
		if !fe.Transient() {
			recons++
			if recons > maxReconnects {
				return fmt.Errorf("link: %s: link died %d times: %w", cmd, recons, ocd.ErrTimeout)
			}
			if rerr := s.reconnect(); rerr != nil {
				return fmt.Errorf("link: %s: reconnect failed (%v) after %w", cmd, rerr, ocd.ErrTimeout)
			}
			// A reconnect buys a fresh adapter; retry the command without
			// consuming the transient-retry budget.
			continue
		}
		attempt++
		if attempt > s.cfg.MaxRetries {
			return fmt.Errorf("link: %s: %d retries exhausted (last: %v): %w", cmd, s.cfg.MaxRetries, fe, ocd.ErrTimeout)
		}
		s.retries.Add(1)
		if s.cfg.OnRetry != nil {
			s.cfg.OnRetry(cmd)
		}
		s.backoff(attempt)
	}
}

// maxReconnects bounds back-to-back reconnect attempts while re-arming, so
// an adapter that stalls during every recovery cannot loop forever.
const maxReconnects = 3

// reconnect revives the transport and restores link-session state: the
// shadowed breakpoints are re-armed in sorted address order (the same
// deterministic order the engine armed them in, so comparator allocation is
// reproducible), then the capability latch is refreshed via OnReconnect.
func (s *Session) reconnect() error {
	if s.cfg.Reconnect == nil {
		return errors.New("no reconnect path")
	}
	for attempt := 0; attempt < maxReconnects; attempt++ {
		if err := s.cfg.Reconnect(); err != nil {
			return err
		}
		if s.rearm() {
			s.reconnects.Add(1)
			if s.cfg.OnReconnect != nil {
				s.cfg.OnReconnect()
			}
			return nil
		}
	}
	return fmt.Errorf("link stalled %d times during re-arm", maxReconnects)
}

// rearm restores the breakpoint set on the revived link. Transient faults
// during re-arm are retried; a fresh stall aborts so reconnect can revive
// again. Target-level errors (a timeout because the board is down mid-
// restore, a remote error) end the re-arm but still count the reconnect as
// successful: the *link* is back, and target state is the engine's
// watchdog/restore machinery's business — it re-arms every breakpoint
// itself after a restore.
func (s *Session) rearm() bool {
	for _, addr := range s.Breakpoints() {
		armed := false
		for attempt := 0; attempt <= s.cfg.MaxRetries; attempt++ {
			err := s.inner.SetBreakpoint(addr)
			if err == nil {
				armed = true
				break
			}
			var fe *FaultError
			if !errors.As(err, &fe) {
				return true // target truth, not a link failure
			}
			if !fe.Transient() {
				return false
			}
			s.retries.Add(1)
			if s.cfg.OnRetry != nil {
				s.cfg.OnRetry("SetBreakpoint")
			}
			s.backoff(attempt + 1)
		}
		if !armed {
			return false
		}
	}
	return true
}

// around is the session's forwarding hook: every command runs through do,
// and a successful breakpoint command updates the shadowed armed set.
func (s *Session) around(c Cmd, call func() error) error {
	err := s.do(c.String(), call)
	if err == nil {
		switch c.Op {
		case OpSetBreakpoint:
			s.bps[c.Addr] = true
		case OpClearBreakpoint:
			delete(s.bps, c.Addr)
		}
	}
	return err
}

var _ Link = (*Session)(nil)
