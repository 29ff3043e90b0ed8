package eof

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
	"time"
)

// golden pins one short campaign's observable output: the SHA-256 of its
// JSONL journal and the Report fields the benchmark and the paper's tables
// read. Refactors must leave every record unchanged: a mismatch means a
// campaign now finds, times or journals something different.
type golden struct {
	sha        string
	execs      int
	edges      int
	crashes    int
	restores   int
	roundTrips int64
	duration   time.Duration
}

// goldenVariants are the campaign shapes every OS runs under. Together they
// cover the classic restore ladder, the snapshot rung, the retry/reconnect
// session absorbing injected faults, and the legacy multi-round-trip
// command sequences.
var goldenVariants = []struct {
	name string
	set  func(*Options)
}{
	{"default", func(*Options) {}},
	{"snapshots", func(o *Options) { o.Snapshots = true }},
	{"linkfaults", func(o *Options) { o.LinkFaultRate = 0.05 }},
	{"legacy", func(o *Options) { o.LegacyLink = true }},
}

// goldenBudget is each solo campaign's board-time budget; goldenFleetBudget
// is the tiered fleet's total.
const (
	goldenBudget      = 5 * time.Minute
	goldenFleetBudget = 2 * time.Minute
)

// goldenWant holds the recorded outputs, keyed by OS/variant.
var goldenWant = map[string]golden{
	"freertos/default":    {"6bdb239dcd77dcef15c089f9dab1a9c3fca932253c423cd62d3e4582244ba8fc", 428, 877, 3, 5, 1341, 306214634697},
	"freertos/snapshots":  {"46d30dffb83488e409451a0e5b115fb6e52e8a0dc75485b9800218f323c0236d", 719, 966, 2, 6, 2185, 300300298322},
	"freertos/linkfaults": {"f371644e948cfc1c653fe96970c3a872f78aa671edfc6e41607a0adb633953db", 428, 877, 3, 5, 1417, 310233920792},
	"freertos/legacy":     {"c4618cf0a52a06c68612f33fff745a8d664dc3ccfd23a5912f69d6548d712623", 412, 862, 3, 4, 2113, 300069835458},
	"rtthread/default":    {"bae6d3eeb4b46b68aa574b9d04eeb349339c4285458ea2039c9659b216bca346", 441, 937, 37, 40, 1690, 300182509525},
	"rtthread/snapshots":  {"e73cf976169264264f51f78acc77ba6ab4484b25bd21c76a0b3b72fe3eba9b03", 373, 908, 27, 31, 1253, 300941786949},
	"rtthread/linkfaults": {"bdcf7590f7845c8652706e726c440a38e9041386b597af24c17ce6435cae8cf6", 429, 931, 37, 40, 1740, 302464390990},
	"rtthread/legacy":     {"d39e24db86179865d027a4c9449df75faf2b71899e5acff5f737f18d60a91d06", 378, 907, 33, 36, 2257, 300583768147},
	"nuttx/default":       {"f62be8c386b0fdd46802cd1e3d6bb55c22a92a7551d466976ed0854e16a0f695", 723, 764, 13, 15, 2306, 301447714616},
	"nuttx/snapshots":     {"cbd476c55ec17be3cf57c276683bc6ba358a55fbf7942fb6681bdd2f494680ff", 1063, 824, 34, 38, 3353, 300920710248},
	"nuttx/linkfaults":    {"db5ce4598228ff674dc8dfe0476f30c55a451b69363ac15d556aff655c1af4ad", 699, 760, 13, 15, 2356, 300158149485},
	"nuttx/legacy":        {"07f6f23d61d7c0ba62d4de2d9272ad20482c1fb3d305650ef4af087593940345", 537, 721, 11, 13, 2817, 300251082021},
	"zephyr/default":      {"c86bbece62047bbb59297b2009dc55c02b93f4b97329ee441a54789e88adbeb8", 738, 948, 16, 16, 2362, 303535753840},
	"zephyr/snapshots":    {"dbbb346da259c7eff7136f04df2e91e05b52bcd70d29111d347e0554578b19fb", 812, 967, 8, 8, 2476, 303392419598},
	"zephyr/linkfaults":   {"4435208cc7b283628562575c9dad6ece129fbd762af279734591f35397e8eff6", 719, 940, 16, 16, 2431, 300614188439},
	"zephyr/legacy":       {"06c081a2662d37203ef3b7952a7596f5ba2babea66ce971d5e1bf481743be11d", 605, 880, 11, 11, 3139, 300138976847},
	"pokos/default":       {"741200324c036caf86c2c7a15f1ea4613aad4cbbffba4b238b0ae3c47b6ec2c0", 284, 443, 0, 0, 856, 303421744292},
	"pokos/snapshots":     {"57c573c4d29c67fd104ac352d54663d64d014f0585bc1adb108a7eeeae63b1e9", 396, 475, 0, 0, 1196, 300559627047},
	"pokos/linkfaults":    {"2999190fec05c2d00ae2714c1eec0a365771fb685da91f7e1e20f498c491471d", 278, 443, 0, 0, 890, 301514209105},
	"pokos/legacy":        {"c10b2b6c52117a5dae9d24ae674801294da83ad37354f96a4349504674eacc9e", 251, 439, 0, 0, 1259, 300121684540},
	"freertos/tiers":      {"f9673d2dd2f878bd061c34e454bd25243c7d8a5174a9f8f92362b47b7f56a249", 3375, 1036, 23, 520, 14840, 952594230572},
	"freertos/failover":   {"04a76251dad5cef90cd76999b08a32446ee01f3571b46ea9c0cac7660e8bcdee", 430, 848, 3, 9, 1369, 133641069530},
	"freertos/tiers-2hw":  {"cc39a958560accf88f8a3c6069ec4f91fb89d0532ad6e5ff269a03742d5f73ce", 2686, 995, 22, 526, 12882, 388776704226},
}

func TestGoldenJournals(t *testing.T) {
	type run struct {
		name   string
		opts   Options
		budget time.Duration
		// kinds lists event kinds the journal must contain, so the code
		// paths the record pins are known to have run.
		kinds []string
	}
	var runs []run
	for _, osName := range Targets() {
		for _, v := range goldenVariants {
			opts := Options{OS: osName, Seed: 11}
			v.set(&opts)
			runs = append(runs, run{osName + "/" + v.name, opts, goldenBudget, nil})
		}
	}
	// The tiered fleet drives the emulated backend's link alongside a
	// hardware confirmation board.
	runs = append(runs, run{"freertos/tiers", Options{OS: "freertos", Seed: 11, Tiers: true, EmulShards: 2}, goldenFleetBudget, nil})
	// A hardware fleet whose boards all die on their fourth boot: both
	// slots are quarantined, the spare is promoted into the first and the
	// triage board confirms findings between epochs.
	runs = append(runs, run{"freertos/failover", Options{
		OS: "freertos", Seed: 11, Shards: 2, Spares: 1, Triage: true, SyncEvery: time.Minute,
		Degrade: DegradeOptions{DieAfterBoots: 4},
	}, goldenBudget, []string{"quarantine", "spare-promote", "triage-end"}})
	// Two hardware slots confirm the emulation tier's findings round-robin,
	// and the triage board's events flush between the two tiers.
	runs = append(runs, run{"freertos/tiers-2hw", Options{
		OS: "freertos", Seed: 11, Shards: 2, Tiers: true, EmulShards: 2, Triage: true,
	}, goldenFleetBudget, []string{"tier-confirm", "triage-end"}})

	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			journal := sha256.New()
			var events bytes.Buffer
			r.opts.TraceJSONL = io.MultiWriter(journal, &events)
			c, err := NewCampaign(r.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rep, err := c.Run(r.budget)
			if err != nil {
				t.Fatal(err)
			}
			got := golden{
				sha:        hex.EncodeToString(journal.Sum(nil)),
				execs:      rep.Execs,
				edges:      rep.Edges,
				crashes:    rep.Crashes,
				restores:   rep.Restores,
				roundTrips: rep.LinkRoundTrips,
				duration:   rep.Duration,
			}
			if want := goldenWant[r.name]; got != want {
				t.Fatalf("campaign output changed:\n got  %s\n want %s", got, want)
			}
			for _, k := range r.kinds {
				if !bytes.Contains(events.Bytes(), []byte(`"kind":"`+k+`"`)) {
					t.Errorf("journal has no %q event", k)
				}
			}
		})
	}
}

// String renders g as a goldenWant literal, so a deliberate behaviour
// change is re-recorded by pasting the failure message.
func (g golden) String() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d, %d, %d}", g.sha, g.execs, g.edges, g.crashes, g.restores, g.roundTrips, int64(g.duration))
}
