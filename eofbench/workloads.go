package main

import (
	"time"

	eof "github.com/eof-fuzz/eof"
)

// sampleEvery is the coverage-series resolution the campaign workloads
// request, fine enough to time virtual_s_to_edges.
const sampleEvery = 10 * time.Second

// soloOptions is the paper's default configuration: FreeRTOS on the
// STM32H745, one board, classic reset and reflash restores, nop sink, no
// store.
func soloOptions(seed int64) eof.Options {
	return eof.Options{OS: "freertos", Board: "stm32h745", Seed: seed, SampleEvery: sampleEvery}
}

var workloads = []workload{
	{
		// The paper's default configuration, and the only workload where
		// reflash and the hex codec are a large cost.
		name: "solo",
		run: runCampaign(campaignSpec{
			opts:   soloOptions,
			budget: 10 * time.Minute,
			seeds:  48,
			edgesN: 800,
		}),
	},
	{
		// The same campaigns with delta restores: one vRestore instead of a
		// reflash, so a link change shows here and a flash change must not.
		name: "snapshots",
		run: runCampaign(campaignSpec{
			opts: func(seed int64) eof.Options {
				o := soloOptions(seed)
				o.Snapshots = true
				return o
			},
			budget: 10 * time.Minute,
			seeds:  48,
			edgesN: 800,
		}),
	},
	{
		// 1 hardware + 2 emulation shards with epoch barriers and hardware
		// confirmation: the only user of fleet, emul and concurrent shards.
		name: "tiered",
		run: runCampaign(campaignSpec{
			opts: func(seed int64) eof.Options {
				o := soloOptions(seed)
				o.Shards = 1
				o.Tiers = true
				o.EmulShards = 2
				o.SyncEvery = 5 * time.Second
				return o
			},
			budget: 20 * time.Second,
			seeds:  24,
			edgesN: 700,
		}),
	},
	{
		// An in-process eofd: every slice rebuilds a campaign and resumes it
		// from a fsync'd checkpoint, the layers the other workloads bypass.
		name: "daemon",
		run:  runDaemon,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}
