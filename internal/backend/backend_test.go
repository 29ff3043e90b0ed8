package backend

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/boards"
	"github.com/eof-fuzz/eof/internal/emul"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/ocd"
	"github.com/eof-fuzz/eof/internal/targets"
	"github.com/eof-fuzz/eof/internal/vtime"
)

// newBackend builds a provisioned, not yet booted backend of the given
// substrate for FreeRTOS on the STM32H745, on its own clock.
func newBackend(t *testing.T, f Factory, emulated bool) (Backend, *vtime.Clock) {
	t.Helper()
	info, err := targets.ByName("freertos")
	if err != nil {
		t.Fatal(err)
	}
	spec := boards.ByName(boards.NameSTM32H745)
	if emulated {
		spec = EmulSpecFor(spec)
	}
	images, err := info.BuildImages(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	clock := &vtime.Clock{}
	bk, err := f(Env{Info: info, Spec: spec, Images: images, Clock: clock, Latency: ocd.DefaultLatency()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bk.Close() })
	if err := bk.Provision(); err != nil {
		t.Fatal(err)
	}
	return bk, clock
}

// class renders an error as its class in the link error taxonomy.
func class(err error) string {
	var re *ocd.RemoteError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ocd.ErrTimeout):
		return "timeout"
	case errors.As(err, &re):
		return "remote:" + string(re.Code)
	}
	return "other:" + err.Error()
}

// step is one command of the differential script. It returns the part of
// the result both substrates must agree on, and the command's error.
type step struct {
	name string
	run  func(bk Backend, l link.Link) (string, error)
}

func ok(err error) (string, error) { return "", err }

func state(l link.Link) (string, error) {
	st, boots, last, err := l.BoardState()
	return fmt.Sprintf("%v boots=%d boot-error=%v", st, boots, last != ""), err
}

// script exercises every command class across the board's life: powered
// off, live, and permanently dead.
func script(lay board.Layout) []step {
	const outOfRange = 0xFFFF_FF00
	return []step{
		// Provisioned but never booted: the core is unreachable.
		{"off/ReadMem", func(_ Backend, l link.Link) (string, error) { _, err := l.ReadMem(lay.Scratch, 4); return "", err }},
		{"off/WriteMem", func(_ Backend, l link.Link) (string, error) { return ok(l.WriteMem(lay.Scratch, []byte{1})) }},
		{"off/SetBreakpoint", func(_ Backend, l link.Link) (string, error) { return ok(l.SetBreakpoint(0x0800_1000)) }},
		{"off/Continue", func(_ Backend, l link.Link) (string, error) { _, err := l.Continue(100); return "", err }},
		{"off/DrainCov", func(_ Backend, l link.Link) (string, error) { _, _, err := l.DrainCov(lay.Cov, 8); return "", err }},
		{"off/WriteMemContinue", func(_ Backend, l link.Link) (string, error) {
			_, err := l.WriteMemContinue(lay.MailboxIn, []byte{0}, 100)
			return "", err
		}},
		{"off/Snapshot", func(_ Backend, l link.Link) (string, error) { return ok(l.Snapshot()) }},
		{"off/RestoreSnapshot", func(_ Backend, l link.Link) (string, error) { _, err := l.RestoreSnapshot(); return "", err }},
		{"off/BoardState", func(_ Backend, l link.Link) (string, error) { return state(l) }},
		{"boot", func(bk Backend, _ link.Link) (string, error) { return ok(bk.Boot()) }},

		// Live board.
		{"live/WriteMem", func(_ Backend, l link.Link) (string, error) {
			return ok(l.WriteMem(lay.Scratch, []byte{0xde, 0xad, 0xbe, 0xef}))
		}},
		{"live/ReadMem", func(_ Backend, l link.Link) (string, error) {
			data, err := l.ReadMem(lay.Scratch, 4)
			return fmt.Sprintf("%x", data), err
		}},
		{"live/ReadMem-out-of-range", func(_ Backend, l link.Link) (string, error) {
			_, err := l.ReadMem(outOfRange, 4)
			return "", err
		}},
		{"live/WriteMem-out-of-range", func(_ Backend, l link.Link) (string, error) {
			return ok(l.WriteMem(outOfRange, []byte{1}))
		}},
		{"live/DrainCov", func(_ Backend, l link.Link) (string, error) {
			entries, lost, err := l.DrainCov(lay.Cov, 8)
			return fmt.Sprintf("lost=%d", lost), errors.Join(err, boundErr(len(entries), 8))
		}},
		{"live/DrainCov-bad-magic", func(_ Backend, l link.Link) (string, error) {
			if err := l.WriteMem(lay.Scratch, make([]byte, 16)); err != nil {
				return "", err
			}
			_, _, err := l.DrainCov(lay.Scratch, 8)
			return "", err
		}},
		{"live/DrainCov-out-of-range", func(_ Backend, l link.Link) (string, error) {
			_, _, err := l.DrainCov(outOfRange, 8)
			return "", err
		}},
		{"live/SetBreakpoint", func(_ Backend, l link.Link) (string, error) { return ok(l.SetBreakpoint(0x0800_1000)) }},
		{"live/ClearBreakpoint", func(_ Backend, l link.Link) (string, error) { return ok(l.ClearBreakpoint(0x0800_1000)) }},
		{"live/RestoreSnapshot-none", func(_ Backend, l link.Link) (string, error) { _, err := l.RestoreSnapshot(); return "", err }},
		{"live/Snapshot", func(_ Backend, l link.Link) (string, error) { return ok(l.Snapshot()) }},
		{"live/RestoreSnapshot", func(_ Backend, l link.Link) (string, error) { _, err := l.RestoreSnapshot(); return "", err }},
		{"live/Continue", func(_ Backend, l link.Link) (string, error) { _, err := l.Continue(100); return "", err }},
		{"live/WriteMemContinue", func(_ Backend, l link.Link) (string, error) {
			_, err := l.WriteMemContinue(lay.Scratch, []byte{1, 2}, 100)
			return "", err
		}},
		{"live/DrainUART", func(_ Backend, l link.Link) (string, error) { _, err := l.DrainUART(); return "", err }},
		{"live/BoardState", func(_ Backend, l link.Link) (string, error) { return state(l) }},

		// The next boot kills the board for good.
		{"doom", func(bk Backend, _ link.Link) (string, error) {
			bk.Board().SetDegrade(board.DegradeConfig{DieAfterBoots: 1})
			return "", nil
		}},
		{"dead/Reset", func(_ Backend, l link.Link) (string, error) { return ok(l.Reset()) }},
		{"dead/PowerCycle", func(_ Backend, l link.Link) (string, error) { return ok(l.PowerCycle()) }},
		{"dead/ReadMem", func(_ Backend, l link.Link) (string, error) { _, err := l.ReadMem(lay.Scratch, 4); return "", err }},
		{"dead/Continue", func(_ Backend, l link.Link) (string, error) { _, err := l.Continue(100); return "", err }},
		{"dead/FlashErase", func(_ Backend, l link.Link) (string, error) { return ok(l.FlashErase(0, 4096)) }},
		{"dead/FlashWrite", func(_ Backend, l link.Link) (string, error) { return ok(l.FlashWrite(0, []byte{1})) }},
		{"dead/RestoreSnapshot", func(_ Backend, l link.Link) (string, error) { _, err := l.RestoreSnapshot(); return "", err }},
		{"dead/BoardState", func(_ Backend, l link.Link) (string, error) { return state(l) }},
	}
}

func boundErr(n, max int) error {
	if n > max {
		return fmt.Errorf("drained %d entries, asked for at most %d", n, max)
	}
	return nil
}

// wantClass pins the error class the script's key steps must earn on every
// substrate; the rest must merely agree across substrates.
var wantClass = map[string]string{
	"off/ReadMem":                "timeout",
	"off/Continue":               "timeout",
	"off/RestoreSnapshot":        "remote:snap",
	"live/ReadMem":               "ok",
	"live/ReadMem-out-of-range":  "remote:mem",
	"live/WriteMem-out-of-range": "remote:mem",
	"live/DrainCov":              "ok",
	"live/DrainCov-bad-magic":    "remote:cov",
	"live/RestoreSnapshot-none":  "remote:snap",
	"live/RestoreSnapshot":       "ok",
	"dead/Reset":                 "remote:dead",
	"dead/PowerCycle":            "remote:dead",
	"dead/ReadMem":               "timeout",
	"dead/FlashErase":            "remote:dead",
	"dead/RestoreSnapshot":       "remote:dead",
}

// TestSubstratesAgree runs one command script on the hardware and the
// emulated substrate: every step must yield the same result and the same
// error class, so the engine's watchdogs, fallback latches and recovery
// ladder behave identically on both.
func TestSubstratesAgree(t *testing.T) {
	hw, _ := newBackend(t, Hardware(), false)
	em, _ := newBackend(t, Emulated(), true)
	lay := board.LayoutFor(hw.Board().Spec)
	hl, el := hw.Connect(), em.Connect()
	for _, s := range script(lay) {
		hres, herr := s.run(hw, hl)
		eres, eerr := s.run(em, el)
		if hres != eres || class(herr) != class(eerr) {
			t.Errorf("%s: hardware (%q, %s) vs emulated (%q, %s)", s.name, hres, class(herr), eres, class(eerr))
		}
		if want, ok := wantClass[s.name]; ok && class(herr) != want {
			t.Errorf("%s: got %s, want %s", s.name, class(herr), want)
		}
	}
	if got := hl.Close(); got != nil {
		t.Errorf("hardware Close: %v", got)
	}
	if got := el.Close(); got != nil {
		t.Errorf("emulated Close: %v", got)
	}
}

// TestEmulatedCommandCost checks that every emulated link command charges
// exactly one emul.OpCost in place of the adapter latency model. Commands
// are issued where the VM itself does no timed work (a live board for the
// memory, breakpoint and drain commands, a dead one for the rest), except
// Reset and PowerCycle, which also pay the VM's own emul.ResetCost.
func TestEmulatedCommandCost(t *testing.T) {
	bk, clock := newBackend(t, Emulated(), true)
	if err := bk.Boot(); err != nil {
		t.Fatal(err)
	}
	lay := board.LayoutFor(bk.Board().Spec)
	l := bk.Connect()
	cost := func(name string, extra time.Duration, cmd func()) {
		t.Helper()
		start := clock.Now()
		cmd()
		if got := clock.Now() - start - extra; got != emul.OpCost {
			t.Errorf("%s charged %v, want one OpCost (%v)", name, got, emul.OpCost)
		}
	}
	cost("ReadMem", 0, func() { _, _ = l.ReadMem(lay.Scratch, 4) })
	cost("WriteMem", 0, func() { _ = l.WriteMem(lay.Scratch, []byte{1}) })
	cost("SetBreakpoint", 0, func() { _ = l.SetBreakpoint(0x0800_1000) })
	cost("ClearBreakpoint", 0, func() { _ = l.ClearBreakpoint(0x0800_1000) })
	cost("DrainCov", 0, func() { _, _, _ = l.DrainCov(lay.Cov, 8) })
	cost("DrainUART", 0, func() { _, _ = l.DrainUART() })
	cost("BoardState", 0, func() { _, _, _, _ = l.BoardState() })

	// Kill the board behind the link's back, so the boot it dies in is not
	// charged to a link command.
	bk.Board().SetDegrade(board.DegradeConfig{DieAfterBoots: 1})
	if err := bk.Board().Reset(); !errors.Is(err, board.ErrDead) {
		t.Fatalf("doomed reset: %v, want board.ErrDead", err)
	}
	cost("Reset", emul.ResetCost, func() { _ = l.Reset() })
	cost("PowerCycle", emul.ResetCost, func() { _ = l.PowerCycle() })
	cost("Continue", 0, func() { _, _ = l.Continue(100) })
	cost("WriteMemContinue", 0, func() { _, _ = l.WriteMemContinue(lay.MailboxIn, []byte{1}, 100) })
	cost("FlashErase", 0, func() { _ = l.FlashErase(0, 4096) })
	cost("FlashWrite", 0, func() { _ = l.FlashWrite(0, []byte{1}) })
	cost("Snapshot", 0, func() { _ = l.Snapshot() })
	cost("RestoreSnapshot", 0, func() { _, _ = l.RestoreSnapshot() })

	start := clock.Now()
	_ = l.Close()
	if clock.Now() != start {
		t.Errorf("Close charged %v, want nothing", clock.Now()-start)
	}
}
