package eof

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/eof-fuzz/eof/internal/backend"
	"github.com/eof-fuzz/eof/internal/trace"
)

// TestBoardLayoutAgrees builds campaigns across the fleet's shape space and
// checks that the three consumers of the board layout agree: the physical
// boards the campaign actually built, the journal header's EmulStart and
// the daemon's hardware footprint.
func TestBoardLayoutAgrees(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		for _, spares := range []int{0, 1} {
			for _, triage := range []bool{false, true} {
				for _, emul := range []int{0, 2} {
					opts := Options{OS: "freertos", Seed: 3, Shards: shards, Spares: spares, Triage: triage}
					if emul > 0 {
						opts.Tiers, opts.EmulShards = true, emul
					}
					name := fmt.Sprintf("shards=%d/spares=%d/triage=%v/emul=%d", shards, spares, triage, emul)
					t.Run(name, func(t *testing.T) { checkLayout(t, opts) })
				}
			}
		}
	}
}

func checkLayout(t *testing.T, opts Options) {
	var journal bytes.Buffer
	opts.TraceJSONL = &journal
	c, err := NewCampaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	line, _, _ := bytes.Cut(journal.Bytes(), []byte("\n"))
	hdr, err := trace.ParseHeader(line)
	if err != nil {
		t.Fatal(err)
	}

	// What was built: hardware boards first, then the emulation tier.
	hwBoards, emulStart := 1, -1
	if c.pool != nil {
		hwBoards = 0
		for i, e := range c.pool.Engines() {
			switch {
			case e.Class() == backend.HW && emulStart < 0:
				hwBoards++
			case e.Class() == backend.Emul && emulStart < 0:
				emulStart = i
			case e.Class() == backend.HW:
				t.Fatalf("hardware board %d after the emulation tier", i)
			}
		}
	}
	if got := hdr.EmulStart(); got != emulStart {
		t.Errorf("journal header EmulStart %d, built emulation tier starts at %d", got, emulStart)
	}
	hw, emul := Footprint(opts)
	if hw != hwBoards {
		t.Errorf("footprint %d, built %d hardware boards", hw, hwBoards)
	}
	built := 1
	if c.pool != nil {
		built = len(c.pool.Engines())
	}
	if built-hwBoards != emul || emul != hdr.EmulShards {
		t.Errorf("built %d emulation boards, footprint %d, journal header %d", built-hwBoards, emul, hdr.EmulShards)
	}
	if got := hdr.HardwareBoards(); got != hwBoards {
		t.Errorf("journal header counts %d hardware boards, built %d", got, hwBoards)
	}
}
