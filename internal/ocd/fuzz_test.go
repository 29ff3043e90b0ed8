package ocd

import (
	"fmt"
	"strings"
	"testing"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/flash"
	"github.com/eof-fuzz/eof/internal/vtime"
)

// boundedFirmware logs once and runs a fixed number of blocks before
// exiting, so any continue budget a fuzzed request names finishes quickly.
type boundedFirmware struct {
	env *board.Env
}

func (f *boundedFirmware) Main() {
	f.env.UART.WriteString("fw: up\n")
	for i := uint64(0); i < 64; i++ {
		f.env.Core.Step(f.env.Spec.FlashBase + 0x1000 + 4*(i%4))
	}
}

// fuzzBoard boots a small instrumented board (so the coverage buffer at
// RAMBase+0x300 is live) running boundedFirmware.
func fuzzBoard(t *testing.T) *board.Board {
	t.Helper()
	spec := &board.Spec{
		Name: "fuzz", Arch: "arm", HZ: 100_000_000,
		CyclesPerBlock: 4, MaxBreakpoints: 4,
		FlashBase: 0x0800_0000, FlashSize: 1 << 20, SectorSize: 4096,
		RAMBase: 0x2000_0000, RAMSize: 128 * 1024, CovEntries: 64,
	}
	table, err := flash.ParseTable("bootloader, app, 0x0, 0x8000\nkernel, app, 0x8000, 0x40000\n")
	if err != nil {
		t.Fatal(err)
	}
	builder := func(env *board.Env) (board.Firmware, error) { return &boundedFirmware{env: env}, nil }
	b, err := board.New(spec, table, builder, &vtime.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	images := map[string]*flash.Image{
		"bootloader": {Magic: flash.MagicBoot, OS: "t", BuildID: 9, CodeSize: 64},
		"kernel":     {Magic: flash.MagicKernel, OS: "t", BuildID: 9, CodeSize: 256, Instrumented: true},
	}
	for part, im := range images {
		if err := b.Provision(part, im.Serialize()); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeReply runs the client's decoder for req's command over a non-error
// reply.
func decodeReply(req, resp string) error {
	var err error
	switch {
	case req == "?":
		_, _, _, err = decodeState(resp)
	case req == "qUART":
		_, err = decodeUART(resp)
	case strings.HasPrefix(req, "m"):
		_, n, perr := parseAddrLen(req[1:])
		if perr != nil {
			return fmt.Errorf("server answered a request it cannot parse: %v", perr)
		}
		_, err = decodeRead(resp, n)
	case strings.HasPrefix(req, "c"), strings.HasPrefix(req, "vRun:"):
		_, err = decodeStop(resp)
	case strings.HasPrefix(req, "vCovDrain:"):
		_, _, err = decodeDrain(resp)
	case req == "vRestore":
		_, err = decodeRestore(resp)
	default:
		// Every other command acknowledges with a bare OK.
		if resp != "OK" {
			err = fmt.Errorf("want OK")
		}
	}
	return err
}

// FuzzServerHandle throws newline-separated request sequences at the debug
// server's request decoder. No request may panic the server, and every
// reply that is not an error must decode with the client's decoder for that
// command: the wire grammar has one source of truth on each side.
func FuzzServerHandle(f *testing.F) {
	for _, seed := range []string{
		"?", "qUART", "D", "r", "R", "c", "c100",
		"m20000000,10", "M20000100,4:01020304", "Z0,8001000", "z0,8001000",
		"vFlashErase:8000,1000", "vFlashWrite:8000:00ff",
		"vCovDrain:20000300,40", "vRun:20000200,10:0102",
		"vSnap\nM20000100,1:07\nvRestore", "vRestore",
		"m0,ffffffff", "mffffffffffffffff,10", "mfffffffffffffff0,20",
		"vFlashErase:ffffffffffffffff,10", "vFlashErase:ff000,ffffffff",
		"vFlashWrite:ffffffffffffffff:00", "vFlashWrite:fffff:00ff",
		"vCovDrain:20000300,ffffffff", "vCovDrain:2001fff8,4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		b := fuzzBoard(t)
		defer func() {
			if b.State() == board.On {
				b.Core().Kill()
			}
		}()
		srv := NewServer(b, DefaultLatency())
		for i, req := range strings.Split(input, "\n") {
			if i == 8 {
				break
			}
			resp, _ := srv.handle(req)
			if strings.HasPrefix(resp, "E") {
				continue
			}
			if err := decodeReply(req, resp); err != nil {
				t.Fatalf("request %q: reply %q does not decode: %v", req, resp, err)
			}
		}
	})
}
