// Package eof is the public API of EOF, a feedback-guided fuzzer for
// embedded operating systems running on (virtual) hardware, reproducing
// "Effective On-Hardware Fuzzing of Embedded Operating Systems"
// (EuroSys 2026).
//
// A Campaign owns the full stack: the target OS image, a virtual development
// board, the OpenOCD-style debug probe, the specification pipeline and the
// fuzzing engine. All control and observation flows through the debug port,
// exactly as on physical targets:
//
//	c, err := eof.NewCampaign(eof.Options{OS: "rtthread", Board: "esp32c3"})
//	if err != nil { ... }
//	defer c.Close()
//	report, err := c.Run(30 * time.Minute) // virtual time
//	for _, bug := range report.Bugs {
//		fmt.Println(bug.Title)
//	}
package eof

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync/atomic"
	"time"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/boards"
	"github.com/eof-fuzz/eof/internal/core"
	"github.com/eof-fuzz/eof/internal/corpus"
	"github.com/eof-fuzz/eof/internal/fleet"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/metrics"
	"github.com/eof-fuzz/eof/internal/prog"
	"github.com/eof-fuzz/eof/internal/specgen"
	"github.com/eof-fuzz/eof/internal/targets"
	"github.com/eof-fuzz/eof/internal/trace"
	"github.com/eof-fuzz/eof/internal/triage"
)

// Targets lists the supported embedded OS names.
func Targets() []string { return targets.Names() }

// Boards lists the catalogued board names.
func Boards() []string {
	all := boards.All()
	out := make([]string, len(all))
	for i, b := range all {
		out[i] = b.Name
	}
	return out
}

// Options configures a fuzzing campaign.
type Options struct {
	// OS names the target embedded OS (see Targets).
	OS string
	// Board names the development board (see Boards). Defaults to
	// "stm32h745".
	Board string
	// Seed makes the campaign deterministic. Defaults to 1.
	Seed int64

	// FeedbackDisabled turns off coverage guidance (the paper's EOF-nf).
	FeedbackDisabled bool
	// APIAwareDisabled degenerates argument generation to AFL-style random
	// values (the generation-guidance ablation).
	APIAwareDisabled bool
	// Uninstrumented builds the image without coverage instrumentation
	// (overhead measurements).
	Uninstrumented bool

	// RestrictAPIs limits fuzzing to the named APIs (application-level
	// testing); empty fuzzes the full surface.
	RestrictAPIs []string
	// InstrumentModules confines coverage to source paths with these
	// prefixes; empty instruments the whole image.
	InstrumentModules []string

	// SampleEvery sets the coverage time-series resolution (default 5
	// virtual minutes).
	SampleEvery time.Duration

	// Shards > 1 shards the campaign across a pool of that many virtual
	// boards running concurrently with shared feedback (fleet mode). The
	// budget passed to Run is total board time, split evenly; the report's
	// Duration is the pool's wall-clock (budget/Shards).
	Shards int
	// SyncEvery is the fleet feedback-exchange interval (default 10
	// virtual minutes). Ignored when Shards <= 1.
	SyncEvery time.Duration
	// Spares is the fleet's hot-spare pool size: extra boards held in
	// reserve and promoted into the slot of a board that dies or turns
	// chronically sick, re-seeded from the shared corpus at the next sync
	// barrier. Ignored by solo campaigns (Shards <= 1 without Tiers).
	Spares int
	// Tiers enables tiered execution: alongside the hardware pool, a tier
	// of EmulShards emulated boards explores the same campaign at emulation
	// speed, and every corpus admission or crash the tier finds is
	// re-executed on a hardware board at the next sync barrier. Confirmed
	// findings enter the hardware campaign; unconfirmed ones are recorded
	// as cross-tier Divergences on the report. Works with any Shards count
	// (Shards = 1 hardware board confirms by default).
	Tiers bool
	// EmulShards is the emulation tier's width (default 4 when Tiers is
	// set). Ignored unless Tiers is set.
	EmulShards int
	// LegacyLink disables the vectored debug-link commands, forcing the
	// multi-round-trip sequences older probe firmware needs.
	LegacyLink bool
	// Snapshots enables the snapshot/delta restore rung: the probe caches a
	// golden snapshot at interesting kernel states and most restores become
	// one vRestore round trip shipping only dirty state, instead of a full
	// reboot (or reflash+reboot). Requires a vectored-capable probe: with
	// LegacyLink every restore silently falls back to the classic ladder.
	Snapshots bool
	// SnapshotStates selects which kernel states snapshots are (re-)taken
	// at, as a comma-separated subset of "post-boot,post-init". Empty means
	// both. Ignored unless Snapshots is set.
	SnapshotStates string

	// Triage enables the crash-triage pipeline: every finding is replayed on
	// freshly restored state to classify its reproducibility (stable / flaky
	// / unreproducible), then ddmin-minimized while its crash cluster keeps
	// matching. Solo campaigns triage between fuzzing iterations; fleets
	// dedicate one extra board and triage at sync barriers, so confirmation
	// happens on different hardware than discovery. Replay cost lands in the
	// report's "triaging" time bucket.
	Triage bool
	// TriageReplays is the confirmation replay count per finding (default 3).
	TriageReplays int

	// LinkFaultRate injects deterministic debug-link faults at this
	// per-command rate (flaky-adapter modelling): 60% dropped frames, 20%
	// corrupt frames, 10% late frames, 10% adapter stalls. The session
	// layer absorbs them via retries and reconnects; see the report's
	// LinkRetries/LinkReconnects. Zero (the default) injects nothing.
	LinkFaultRate float64
	// LinkRetries bounds the session layer's transparent per-command
	// retries (0 = default of 4, negative disables retries so every fault
	// surfaces to the liveness watchdogs).
	LinkRetries int

	// TraceJSONL, when non-nil, streams the campaign's structured trace
	// journal to the writer as JSON Lines — one event per line, stamped
	// with virtual time, shard and sequence number. In fleet mode events
	// are merged in shard order at every sync barrier, so the journal is
	// deterministic for a fixed seed.
	TraceJSONL io.Writer
	// StatusEvery, when positive, prints a live one-line progress summary
	// (execs/s, edges, restore rate, link health) every host-time interval
	// to StatusWriter.
	StatusEvery time.Duration
	// StatusWriter receives the live status lines (default os.Stderr).
	StatusWriter io.Writer
	// MetricsAddr, when non-empty, serves campaign telemetry over HTTP on
	// this address while Run executes: Prometheus text exposition at
	// /metrics, a JSON status document (per-shard and per-tier breakdown) at
	// /status, and net/http/pprof at /debug/pprof/. ":0" picks a free port —
	// see Campaign.MetricsAddr. The metric registry subscribes to the same
	// trace stream as the journal, so enabling it never perturbs journals or
	// reports.
	MetricsAddr string
	// FlightRecorder overrides the size of the pre-crash event ring
	// attached to every Bug (0 = the default of 64 events).
	FlightRecorder int

	// CorpusDir, when non-empty, makes the campaign crash-safe: every corpus
	// admission is written to a content-addressed on-disk store under this
	// directory (namespaced by OS and board), and the full resumable campaign
	// state — corpus membership, cumulative coverage, crash clusters,
	// per-shard RNG cursors and elapsed virtual time — is checkpointed at
	// every sync barrier with write-ahead, atomically renamed, fsynced
	// writes. A kill -9 loses at most the epoch in flight. Persistence runs
	// between epochs and journals on its own campaign-level stream
	// (shard -1), so reports and per-shard journals are byte-identical with
	// it on or off.
	CorpusDir string
	// CorpusNamespace isolates this campaign's store under
	// <CorpusDir>/ns/<namespace>/<os>/<board> instead of the shared
	// per-target layout — the daemon gives every job its own namespace so
	// many campaigns can persist into one store root without mixing
	// corpora. Single path segment of [a-zA-Z0-9._-]; ignored when
	// CorpusDir is empty.
	CorpusNamespace string
	// Resume, with CorpusDir set, rebuilds the campaign from the store's
	// last good checkpoint before fuzzing: persisted seeds rejoin every
	// corpus, checkpointed edges become pre-seen, known crash clusters are
	// not re-reported, and the RNG continues from the checkpoint's recorded
	// cursor, so resuming twice from the same checkpoint explores
	// identically. Corrupt or torn store files are quarantined under
	// <CorpusDir>/damaged/ and the campaign degrades to the previous good
	// checkpoint instead of failing.
	Resume bool
	// DistillEvery, when positive, distills the on-disk store every that
	// many checkpoints: the manifest is rewritten to a minimal set of
	// entries covering the union of attributed edges (greedy set cover in
	// admission order) and unreferenced blobs are removed. Only the store
	// shrinks — the running campaign's in-memory corpus is untouched.
	DistillEvery int

	// Health tunes the escalating recovery ladder and the per-board health
	// score; zero fields take the documented defaults.
	Health HealthOptions
	// Degrade configures the virtual board's degradation model; the zero
	// value is a perfect board.
	Degrade DegradeOptions
}

// HealthOptions tunes the escalating recovery ladder (reset -> reflash ->
// power-cycle) and the per-board health score. Zero fields take the
// defaults noted per field.
type HealthOptions struct {
	// ResetAttempts, ReflashAttempts and PowerCycleAttempts budget the
	// three ladder rungs (defaults 1, 1, 2). Exhausting every rung marks
	// the board dead.
	ResetAttempts      int
	ReflashAttempts    int
	PowerCycleAttempts int
	// MaxResumes bounds the post-boot resume loop that re-synchronises at
	// the executor entry point (default 32); exhaustion escalates the
	// ladder instead of failing the campaign.
	MaxResumes int
	// Decay is the EWMA weight of the newest restore outcome in the health
	// score (default 0.25).
	Decay float64
	// SickThreshold is the health score below which a fleet supervisor
	// quarantines the board when a spare is available (default 0.3).
	SickThreshold float64
}

// DegradeOptions makes the virtual board age and fail like real hardware:
// wear-limited flash sectors, intermittent boot failures and permanent
// death. The zero value is a perfect board; all failures are drawn from a
// seeded RNG, so campaigns stay deterministic.
type DegradeOptions struct {
	// WearLimit fails a flash sector's erase/program once its erase count
	// exceeds this limit (0 = no wear). WearFailStreak is how many
	// consecutive operations on a worn sector fail before it recovers
	// (default 1).
	WearLimit      int
	WearFailStreak int
	// BootFailRate is the probability a boot transiently fails (board
	// stays off, a retry may succeed). A cold power-cycle boot halves it.
	BootFailRate float64
	// DeathRate is the per-boot probability of permanent hardware death;
	// DieAfterBoots kills the board deterministically on its Nth boot
	// attempt (0 = never).
	DeathRate     float64
	DieAfterBoots int
	// Seed decouples the degradation RNG from the campaign seed
	// (0 = derive from the campaign seed).
	Seed int64
}

// Bug is one deduplicated finding.
type Bug struct {
	// OS and Board locate the campaign.
	OS    string
	Board string
	// Title is a one-line description; Signature deduplicates.
	Title     string
	Signature string
	// Kind is "panic" or "assert"; Monitor is the detector that attributed
	// it ("exception" or "log").
	Kind    string
	Monitor string
	// Backtrace holds "file : function : line" frames, innermost first.
	Backtrace []string
	// Log is the UART context captured around the crash.
	Log []string
	// Reproducer is the triggering program in textual form.
	Reproducer string
	// FoundAt is the virtual campaign time of discovery.
	FoundAt time.Duration
	// Trace is the flight recorder: the last trace events the finding
	// shard emitted before detection, oldest first.
	Trace []trace.Event

	// Cluster is the normalized crash-clustering key (frame hash for faults,
	// canonicalized expression for asserts); findings with equal clusters are
	// the same bug.
	Cluster string
	// Triage outcome, zero unless the campaign ran with Options.Triage:
	// Reproducibility is "stable", "flaky" or "unreproducible" after Replays
	// confirmation replays, ReplayHits of which reproduced the cluster.
	Reproducibility string
	ReplayHits      int
	Replays         int
	// OrigCalls and MinCalls record the minimization ratio; ReproJSON is the
	// minimized program in portable JSON form (see ReproFile).
	OrigCalls int
	MinCalls  int
	ReproJSON string
}

// ReproFile renders a triaged finding as a portable repro file that
// ReplayRepro (and `eof -replay`) can confirm on a fresh board.
func (b *Bug) ReproFile() ([]byte, error) {
	if b.ReproJSON == "" {
		return nil, fmt.Errorf("eof: bug %q has no serialized reproducer (campaign ran without triage?)", b.Signature)
	}
	r := &triage.Repro{
		OS:              b.OS,
		Board:           b.Board,
		Cluster:         b.Cluster,
		Sig:             b.Signature,
		Kind:            b.Kind,
		Monitor:         b.Monitor,
		Title:           b.Title,
		Reproducibility: b.Reproducibility,
		ReplayHits:      b.ReplayHits,
		Replays:         b.Replays,
		OrigCalls:       b.OrigCalls,
		MinCalls:        b.MinCalls,
		Prog:            []byte(b.ReproJSON),
	}
	return r.Encode()
}

// ReplayResult is the outcome of confirming a repro file on a fresh board.
type ReplayResult struct {
	OS        string
	Board     string
	Cluster   string
	Signature string
	Title     string
	// Hits of Replays runs reproduced the recorded cluster; Confirmed is
	// Hits > 0.
	Hits      int
	Replays   int
	Confirmed bool
}

// ReplayRepro parses a repro file produced by a triage-enabled campaign,
// builds a fresh campaign stack for its recorded OS and board, and replays
// the program (replays = 0 uses the file's recorded count, else 3). This is
// the cross-board confirmation path: the replaying board shares nothing with
// the one that found the bug.
func ReplayRepro(data []byte, replays int) (*ReplayResult, error) {
	r, err := triage.ParseRepro(data)
	if err != nil {
		return nil, err
	}
	info, err := targets.ByName(r.OS)
	if err != nil {
		return nil, err
	}
	spec := boards.ByName(r.Board)
	if spec == nil {
		return nil, fmt.Errorf("eof: repro file names unknown board %q (have %v)", r.Board, Boards())
	}
	e, err := core.NewEngine(core.DefaultConfig(info, spec))
	if err != nil {
		return nil, err
	}
	defer e.Close()
	p, err := e.ParseProgJSON(r.Prog)
	if err != nil {
		return nil, fmt.Errorf("eof: repro program: %w", err)
	}
	cluster := r.Cluster
	if cluster == "" {
		cluster = triage.Cluster(nil, r.Sig)
	}
	if replays <= 0 {
		replays = r.Replays
	}
	if replays <= 0 {
		replays = 3
	}
	hits, err := e.ConfirmRepro(p, cluster, replays)
	if err != nil {
		return nil, err
	}
	return &ReplayResult{
		OS: r.OS, Board: r.Board, Cluster: cluster, Signature: r.Sig, Title: r.Title,
		Hits: hits, Replays: replays, Confirmed: hits > 0,
	}, nil
}

// Sample is one coverage-over-time point.
type Sample struct {
	At    time.Duration
	Edges int
}

// Report summarises a finished campaign.
type Report struct {
	OS    string
	Board string
	// Shards is the board-pool size the campaign ran on (1 = solo).
	Shards int
	// Execs counts completed test cases; Edges is distinct branch coverage.
	Execs int
	Edges int
	// Crashes, Restores and Reflashes count liveness events: detected
	// crashes, state restorations, and restorations that needed a full
	// image reflash.
	Crashes   int
	Restores  int
	Reflashes int
	// RestoresByReason breaks Restores down by trigger ("crash", "fault",
	// "timeout", "pc-stall", ...).
	RestoresByReason map[string]int
	// RungEscalations counts recovery-ladder climbs past a failed rung;
	// PowerCycles counts full power cycles (the ladder's last rung).
	RungEscalations int
	PowerCycles     int
	// DeltaRestores counts restores satisfied by the snapshot rung in one
	// vRestore round trip; FullRestores counts restores that walked the
	// classic ladder. They always sum to Restores. SnapshotTakes counts
	// golden snapshots cached probe-side. All zero unless Options.Snapshots.
	DeltaRestores int
	FullRestores  int
	SnapshotTakes int
	// RestoreBytesShipped and RestoreBytesSkipped total the delta restores'
	// re-shipped bytes vs bytes proven clean and left in place — the wire
	// traffic the dirty tracking saved.
	RestoreBytesShipped int64
	RestoreBytesSkipped int64
	// DegradedMonitors counts exception symbols left unarmed because the
	// board ran out of breakpoint comparators.
	DegradedMonitors int
	// LinkRoundTrips is the total number of debug-link commands issued
	// (including retried attempts); divide by Execs for the per-exec
	// transport cost.
	LinkRoundTrips int64
	// LinkRetries counts commands transparently re-sent after a transient
	// link fault; LinkReconnects counts recovered link deaths (adapter
	// revived, breakpoints re-armed). Both are zero on a healthy link.
	LinkRetries    int64
	LinkReconnects int64
	// LinkPerCmd is the per-command round-trip accounting from the link
	// metrics layer: count, total and mean virtual latency per command,
	// sorted by command name.
	LinkPerCmd []link.CmdStat
	// TriagedBugs counts findings the triage pipeline processed;
	// TriageReplays counts the replay executions it spent (both zero when
	// Options.Triage is off).
	TriagedBugs   int
	TriageReplays int
	// TimeBy breaks board time down by activity: executing, restoring,
	// reflashing, link overhead, triaging and (fleet) sync-barrier idling.
	// Solo it sums to Duration exactly; in fleet mode it sums activated-board
	// time, i.e. activated boards x Duration.
	TimeBy trace.TimeBy
	Bugs   []Bug
	Series []Sample
	// Duration is the campaign's virtual runtime. In fleet mode shards run
	// concurrently, so this is the pool's wall-clock, not summed board time.
	Duration time.Duration
	// Health is the board's final condition (in fleet mode, the pool's
	// sickest board); BoardHealth lists every activated board in
	// physical-pool order (nil in solo mode).
	Health      HealthReport
	BoardHealth []HealthReport
	// Quarantines lists the boards the fleet supervisor retired, in
	// supervision order (nil in solo mode or on a healthy fleet).
	Quarantines []QuarantineEvent
	// Tiers breaks the campaign down by execution tier (hardware first,
	// then emulation). Nil unless the campaign ran with Options.Tiers.
	Tiers []TierReport
	// Divergences lists every cross-tier disagreement the confirmation
	// replays uncovered. Nil unless the campaign ran with Options.Tiers.
	Divergences []Divergence
	// Persist summarises the durable store. Nil unless the campaign ran
	// with Options.CorpusDir.
	Persist *PersistReport
}

// PersistReport summarises what the persistence layer did during a campaign
// run with Options.CorpusDir.
type PersistReport struct {
	// Dir is the store's namespaced directory (<CorpusDir>/<os>/<board>).
	Dir string
	// Entries is the store's final corpus size; Admitted counts the new
	// entries this run persisted (deduplicated re-admissions excluded).
	Entries  int
	Admitted int
	// Checkpoints counts the epoch checkpoints this run committed; Distills
	// the store distillations, which removed Dropped entries in total.
	Checkpoints int
	Distills    int
	Dropped     int
	// Resumed reports whether the campaign continued from a checkpoint;
	// ResumedSeeds counts the persisted programs that re-entered the corpus,
	// and PriorEpochs/PriorElapsed the resumed history carried forward.
	Resumed      bool
	ResumedSeeds int
	PriorEpochs  int
	PriorElapsed time.Duration
	// Warnings lists recoverable store damage encountered (torn manifest
	// lines, corrupt blobs or checkpoints — all quarantined, none fatal).
	Warnings []string
}

// TierReport summarises one execution tier of a tiered campaign.
type TierReport struct {
	// Class is "hw" (ground truth) or "emul" (the explore tier).
	Class string
	// Boards counts the tier's activated boards, Execs their summed test
	// cases and Edges the tier's distinct branch coverage (for "hw" this
	// equals the report's Edges).
	Boards int
	Execs  int
	Edges  int
	// TimeBy is the tier's summed board-time budget.
	TimeBy trace.TimeBy
	// Series is the tier's coverage growth sampled at epoch barriers.
	Series []Sample
	// ConfirmReplays counts hardware re-executions of emulation-tier
	// findings (hardware tier only); Confirmed and Diverged count how many
	// emulation findings those replays reproduced vs contradicted.
	ConfirmReplays int
	Confirmed      int
	Diverged       int
}

// Divergence is one cross-tier disagreement: something one tier observed
// that the other did not when re-executing the same program.
type Divergence struct {
	// Kind is "emul-only-cov" (claimed edges hardware never executed),
	// "emul-only-crash" (an emulation crash hardware cannot reproduce) or
	// "hw-only-crash" (a hardware crash the emulation run never hit).
	Kind string
	// Cluster is the crash cluster, for crash divergences.
	Cluster string
	// Edges counts the emulation-claimed edges the hardware replay never
	// executed, for coverage divergences.
	Edges int
	// Prog is the diverging program in textual form; Shard is the emulation
	// shard (physical pool index) that proposed it; At is the pool
	// wall-clock time of the confirmation replay.
	Prog  string
	Shard int
	At    time.Duration
}

// HealthReport is one board's accumulated condition record.
type HealthReport struct {
	// Score is an EWMA over restore outcomes in [0, 1], starting at 1; a
	// board that keeps needing the deeper recovery rungs drifts toward 0.
	Score float64
	// Restores, Reflashes and PowerCycles count recovery actions;
	// Escalations counts ladder climbs past a failed rung.
	Restores    int
	Reflashes   int
	PowerCycles int
	Escalations int
	// Dead marks permanent hardware death.
	Dead bool
}

// QuarantineEvent records one board the fleet supervisor removed from the
// pool, and the hot spare (if any) promoted into its slot.
type QuarantineEvent struct {
	// Slot is the shard slot the board was serving; Board is its physical
	// pool index (spares start at Shards).
	Slot  int
	Board int
	// Spare is the physical index of the promoted replacement, or -1 when
	// the spare pool was empty and the slot went unmanned.
	Spare int
	// Reason is "dead" (permanent hardware death) or "sick" (health score
	// below the configured threshold).
	Reason string
	// At is the pool wall-clock time of the quarantine.
	At time.Duration
	// Health is the board's final health record.
	Health HealthReport
	// Tier is the tier the board served ("" or "hw" for the hardware pool,
	// "emul" for an emulation explore shard).
	Tier string
}

// Campaign is one configured fuzzing run.
type Campaign struct {
	engine *core.Engine // solo mode
	pool   *fleet.Fleet // fleet mode (Shards > 1)
	shards int

	metricsSink *metrics.Sink   // non-nil with Options.MetricsAddr
	metricsSrv  *metrics.Server // ditto

	// Persistence state (Options.CorpusDir). syncEvery is the solo-mode
	// checkpoint cadence; stop mirrors the engines' stop flags so the solo
	// persist loop drains after the current epoch's checkpoint.
	persist      *corpus.Persister
	syncEvery    time.Duration
	stop         atomic.Bool
	resumed      bool
	resumedSeeds int
	priorEpochs  int
	priorElapsed time.Duration
}

// MetricsAddr returns the telemetry server's bound address (useful when
// Options.MetricsAddr was ":0"), or "" when the campaign serves no metrics.
func (c *Campaign) MetricsAddr() string {
	if c.metricsSrv == nil {
		return ""
	}
	return c.metricsSrv.Addr()
}

func (c *Campaign) closeMetrics() {
	if c.metricsSrv != nil {
		_ = c.metricsSrv.Close()
	}
}

// NewCampaign builds the full stack for the given options.
func NewCampaign(opts Options) (*Campaign, error) {
	info, err := targets.ByName(opts.OS)
	if err != nil {
		return nil, err
	}
	boardName := boardOf(opts)
	spec := boards.ByName(boardName)
	if spec == nil {
		return nil, fmt.Errorf("eof: unknown board %q (have %v)", boardName, Boards())
	}
	cfg := core.DefaultConfig(info, spec)
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	// Open the durable store (and load any resume state) before anything
	// derives from the seed: a resumed campaign continues from the
	// checkpoint's NextSeed, and the journal header below records it.
	var store *corpus.Store
	var resume *corpus.Resume
	if opts.Resume && opts.CorpusDir == "" {
		return nil, fmt.Errorf("eof: Resume requires CorpusDir")
	}
	if opts.CorpusDir != "" {
		s, err := corpus.OpenNamespace(opts.CorpusDir, opts.CorpusNamespace, info.Name, boardName)
		if err != nil {
			return nil, err
		}
		store = s
		if opts.Resume {
			r, err := s.LoadResume()
			if err != nil {
				return nil, err
			}
			resume = r
			if r.Ck != nil {
				cfg.Seed = r.Ck.NextSeed
			}
		}
	}
	cfg.FeedbackGuided = !opts.FeedbackDisabled
	cfg.APIAware = !opts.APIAwareDisabled
	cfg.Instrumented = !opts.Uninstrumented
	cfg.CallFilter = opts.RestrictAPIs
	cfg.CovModules = opts.InstrumentModules
	cfg.LegacyLink = opts.LegacyLink
	cfg.Snapshots = opts.Snapshots
	cfg.SnapshotStates = opts.SnapshotStates
	if opts.LinkFaultRate > 0 {
		// Zero fault seed: each engine (and fleet shard) derives its own
		// deterministic fault sequence from its campaign seed.
		cfg.LinkFaults = link.Profile(opts.LinkFaultRate, 0)
	}
	cfg.LinkRetries = opts.LinkRetries
	cfg.Triage.Enabled = opts.Triage
	cfg.Triage.Replays = opts.TriageReplays
	cfg.Health = core.HealthConfig{
		ResetAttempts:      opts.Health.ResetAttempts,
		ReflashAttempts:    opts.Health.ReflashAttempts,
		PowerCycleAttempts: opts.Health.PowerCycleAttempts,
		MaxResumes:         opts.Health.MaxResumes,
		Decay:              opts.Health.Decay,
		SickThreshold:      opts.Health.SickThreshold,
	}
	cfg.Degrade = board.DegradeConfig{
		// Zero degrade seed: each engine (and fleet shard) ages under its
		// own deterministic sequence derived from its campaign seed.
		Seed:           opts.Degrade.Seed,
		WearLimit:      opts.Degrade.WearLimit,
		WearFailStreak: opts.Degrade.WearFailStreak,
		BootFailRate:   opts.Degrade.BootFailRate,
		DeathRate:      opts.Degrade.DeathRate,
		DieAfterBoots:  opts.Degrade.DieAfterBoots,
	}
	if opts.SampleEvery > 0 {
		cfg.SampleEvery = opts.SampleEvery
	}
	cfg.FlightRecorder = opts.FlightRecorder
	lay, fleetMode := layoutOf(opts)
	if opts.TraceJSONL != nil {
		hdr := lay
		hdr.OS, hdr.Board, hdr.Seed, hdr.Digest = info.Name, boardName, cfg.Seed, optionsDigest(opts)
		if _, err := opts.TraceJSONL.Write(trace.AppendHeaderJSON(nil, hdr)); err != nil {
			return nil, fmt.Errorf("eof: journal header: %w", err)
		}
		cfg.TraceSink = trace.NewJSONL(opts.TraceJSONL)
	}
	if opts.StatusEvery > 0 {
		w := opts.StatusWriter
		if w == nil {
			w = os.Stderr
		}
		status := trace.NewStatus(w, opts.StatusEvery)
		status.SetEmulStart(lay.EmulStart())
		cfg.StatusSink = status
	}
	c := &Campaign{shards: lay.Shards, syncEvery: opts.SyncEvery}
	if c.syncEvery <= 0 {
		c.syncEvery = fleet.DefaultSyncEvery
	}
	if store != nil {
		popts := corpus.PersisterOptions{
			Seed:         cfg.Seed,
			DistillEvery: opts.DistillEvery,
			Sink:         cfg.TraceSink,
		}
		if resume != nil && resume.Ck != nil {
			popts.PriorEpochs = resume.Ck.Epoch
			popts.PriorElapsed = resume.Ck.Elapsed
			popts.Clusters = resume.Ck.Clusters
			c.resumed = true
			c.priorEpochs = resume.Ck.Epoch
			c.priorElapsed = resume.Ck.Elapsed
		} else if resume != nil {
			c.resumed = true
		}
		c.persist = corpus.NewPersister(store, popts)
	}
	if opts.MetricsAddr != "" {
		reg := metrics.NewRegistry()
		c.metricsSink = metrics.NewSink(reg, lay.EmulStart())
		srv, err := metrics.Serve(opts.MetricsAddr, reg, c.metricsSink.Status)
		if err != nil {
			return nil, err
		}
		c.metricsSrv = srv
		// The registry rides the live sink path next to the status line;
		// the deterministic journal path is untouched.
		cfg.StatusSink = trace.Multi(cfg.StatusSink, c.metricsSink)
	}
	if fleetMode {
		pool, err := fleet.New(cfg, fleet.Options{
			Shards:     lay.Shards,
			SyncEvery:  opts.SyncEvery,
			Spares:     lay.Spares,
			EmulShards: lay.EmulShards,
			Persist:    c.persist,
		})
		if err != nil {
			c.closeMetrics()
			return nil, err
		}
		c.pool = pool
		if resume != nil {
			d, clusters, seeds := buildResumeDelta(pool.Engines()[0].ParseProgJSON, resume)
			pool.SeedFrom(d, clusters)
			c.resumedSeeds = seeds
		}
		return c, nil
	}
	engine, err := core.NewEngine(cfg)
	if err != nil {
		c.closeMetrics()
		return nil, err
	}
	c.engine = engine
	if resume != nil {
		d, clusters, seeds := buildResumeDelta(engine.ParseProgJSON, resume)
		engine.ImportSyncDelta(d)
		engine.MarkKnownClusters(clusters)
		c.resumedSeeds = seeds
	}
	return c, nil
}

// defaultEmulShards is the emulation tier's width when Options.Tiers is set
// and Options.EmulShards is not.
const defaultEmulShards = 4

// layoutOf returns the campaign's physical board layout (see fleet.Layout)
// and whether it runs as a fleet. Options.Tiers or more than one shard makes
// a fleet; otherwise the campaign is solo, on one board with inline triage,
// and Spares is ignored.
func layoutOf(opts Options) (lay trace.Header, fleetMode bool) {
	fo := fleet.Options{Shards: opts.Shards, Spares: opts.Spares}
	if opts.Tiers {
		fo.EmulShards = opts.EmulShards
		if fo.EmulShards <= 0 {
			fo.EmulShards = defaultEmulShards
		}
	}
	if opts.Shards <= 1 && fo.EmulShards == 0 {
		return trace.Header{Shards: 1}, false
	}
	return fleet.Layout(fo, opts.Triage), true
}

// Footprint returns the boards a campaign with these options runs on:
// hardware counts its shards, hot spares and the fleet triage board — what
// it occupies of a board pool — and emulation its emulated explore shards,
// which run on compute, not pool hardware.
func Footprint(opts Options) (hardware, emulation int) {
	lay, _ := layoutOf(opts)
	return lay.HardwareBoards(), lay.EmulShards
}

// HasCheckpoint reports whether the durable store a campaign with these
// options would open (Options.CorpusDir, CorpusNamespace, OS and Board)
// already holds a committed checkpoint, i.e. whether Resume has state to
// continue from.
func HasCheckpoint(opts Options) bool {
	return corpus.HasCheckpoint(opts.CorpusDir, opts.CorpusNamespace, opts.OS, boardOf(opts))
}

// boardOf returns the board a campaign runs on: Options.Board, or the
// default stm32h745.
func boardOf(opts Options) string {
	if opts.Board == "" {
		return boards.NameSTM32H745
	}
	return opts.Board
}

// buildResumeDelta converts persisted store state into the sync delta that
// re-seeds a campaign: the checkpoint's cumulative edges plus every verified
// corpus entry (manifest entries persisted after the last checkpoint
// included — work from the interrupted epoch is kept, never lost). A blob
// that no longer parses under the current spec is skipped; the hash check in
// the store already proved it undamaged, so a parse failure means the spec
// drifted, not the disk.
func buildResumeDelta(parse func([]byte) (*prog.Prog, error), r *corpus.Resume) (core.SyncDelta, []string, int) {
	var d core.SyncDelta
	var clusters []string
	if r.Ck != nil {
		d.Edges = append(d.Edges, r.Ck.Edges...)
		clusters = r.Ck.Clusters
	}
	seeds := 0
	for _, en := range r.Entries {
		p, err := parse(en.Prog)
		if err != nil {
			continue
		}
		d.Seeds = append(d.Seeds, core.SeedShare{
			P: p, NewEdges: en.NewEdges, Edges: append([]uint32(nil), en.Edges...),
		})
		d.Edges = append(d.Edges, en.Edges...)
		seeds++
	}
	return d, clusters, seeds
}

// optionsDigest fingerprints the campaign options for the journal header:
// FNV-64a over their canonical rendering, with the observability attachments
// (writers, status interval, metrics address) zeroed so replaying the same
// campaign with different telemetry wiring yields the same digest.
func optionsDigest(opts Options) string {
	opts.TraceJSONL = nil
	opts.StatusWriter = nil
	opts.StatusEvery = 0
	opts.MetricsAddr = ""
	// Persistence never perturbs the campaign (checkpointing runs between
	// epochs on its own journal stream), so the store attachment is zeroed
	// too: a persisted run and a plain run of the same campaign share a
	// digest. Resume stays in — it changes the starting state.
	opts.CorpusDir = ""
	opts.CorpusNamespace = ""
	opts.DistillEvery = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", opts)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Run fuzzes for the given virtual-time budget and returns the report. In
// fleet mode the budget is total board time, split evenly across the pool.
// Run may be called once per campaign.
func (c *Campaign) Run(budget time.Duration) (*Report, error) {
	var rep *core.Report
	var err error
	if c.pool != nil {
		rep, err = c.pool.Run(budget)
	} else {
		rep, err = c.runSolo(budget)
	}
	if err != nil {
		return nil, err
	}
	out := convertReport(rep)
	out.Shards = c.shards
	out.Persist = c.persistReport()
	if c.metricsSink != nil {
		// Pin the scraped counters to the authoritative report: a scrape
		// after Run equals the Report field for field.
		c.metricsSink.PublishFinal(finalOf(out))
	}
	return out, nil
}

// RequestStop asks the campaign to drain gracefully: every engine stops at
// its next iteration boundary, the current epoch's barrier runs normally —
// including the final durable checkpoint when CorpusDir is set — and Run
// returns the report for the completed portion. Safe to call from another
// goroutine (signal handlers).
func (c *Campaign) RequestStop() {
	c.stop.Store(true)
	if c.pool != nil {
		c.pool.RequestStop()
		return
	}
	c.engine.RequestStop()
}

// runSolo is engine.Run with the budget cut into epochs: RunFor slices toward
// absolute virtual deadlines, with a persistence barrier after each slice
// when the campaign has a store. Without one the whole budget is a single
// slice. Because the engine checks its deadline only between iterations and
// the barrier touches no engine state (the sync delta it drains is
// solo-idle), the iteration sequence — and thus the journal and report — is
// exactly what one unsliced RunFor would produce.
func (c *Campaign) runSolo(budget time.Duration) (*core.Report, error) {
	e := c.engine
	if err := e.Setup(); err != nil {
		return nil, err
	}
	every := budget
	if c.persist != nil {
		every = c.syncEvery
	}
	clock := e.Clock()
	start := clock.Now()
	end := start + budget
	for epoch := 1; clock.Now() < end; epoch++ {
		if err := e.RunFor(min(every, end-clock.Now())); err != nil {
			return nil, err
		}
		if c.persist != nil {
			if err := c.soloBarrier(epoch, clock.Now()-start); err != nil {
				return nil, err
			}
		}
		// A stop request ends RunFor early; the deadline is still ahead.
		if c.stop.Load() {
			break
		}
	}
	rep := e.Report()
	e.EmitTimeBudget(rep.TimeBy, rep.Duration)
	return rep, nil
}

// soloBarrier persists one solo epoch: the slice's corpus admissions (the
// engine's drained sync delta), the cumulative collector edges, the known
// crash clusters and the single shard cursor.
func (c *Campaign) soloBarrier(epoch int, elapsed time.Duration) error {
	e := c.engine
	adm, err := fleet.Admissions(e.DrainSyncDelta(), 0)
	if err != nil {
		return fmt.Errorf("eof: %w", err)
	}
	return c.persist.Barrier(corpus.Barrier{
		Epoch:      epoch,
		Elapsed:    elapsed,
		Edges:      e.CollectorEdges(),
		Clusters:   e.KnownClusters(),
		Cursors:    []corpus.ShardCursor{{Shard: 0, Execs: e.Execs()}},
		Admissions: adm,
	})
}

// persistReport snapshots the persistence layer for the public report (nil
// without Options.CorpusDir).
func (c *Campaign) persistReport() *PersistReport {
	if c.persist == nil {
		return nil
	}
	st := c.persist.Stats()
	return &PersistReport{
		Dir:          c.persist.Store().Dir(),
		Entries:      st.Entries,
		Admitted:     st.Admitted,
		Checkpoints:  st.Checkpoints,
		Distills:     st.Distills,
		Dropped:      st.Dropped,
		Resumed:      c.resumed,
		ResumedSeeds: c.resumedSeeds,
		PriorEpochs:  c.priorEpochs,
		PriorElapsed: c.priorElapsed,
		Warnings:     c.persist.Store().Warnings(),
	}
}

// finalOf converts the public report into the metrics publish record.
func finalOf(r *Report) metrics.Final {
	f := metrics.Final{
		Execs:          r.Execs,
		Edges:          r.Edges,
		Restores:       r.Restores,
		ByReason:       r.RestoresByReason,
		DeltaRestores:  r.DeltaRestores,
		FullRestores:   r.FullRestores,
		Bugs:           len(r.Bugs),
		LinkRetries:    r.LinkRetries,
		LinkReconnects: r.LinkReconnects,
		Quarantines:    len(r.Quarantines),
		TimeBy:         r.TimeBy,
		Duration:       r.Duration,
	}
	if len(r.Tiers) > 0 {
		f.TierExecs = make(map[string]int, len(r.Tiers))
		for _, t := range r.Tiers {
			f.TierExecs[t.Class] = t.Execs
		}
	}
	return f
}

// Close releases the debug link(s) and the board(s), and shuts down the
// telemetry server if one is running.
func (c *Campaign) Close() {
	c.closeMetrics()
	if c.pool != nil {
		c.pool.Close()
		return
	}
	c.engine.Close()
}

func convertReport(r *core.Report) *Report {
	out := &Report{
		OS:                  r.OS,
		Board:               r.Board,
		Execs:               r.Stats.Execs,
		Edges:               r.Edges,
		Crashes:             r.Stats.Crashes,
		Restores:            r.Stats.Restores,
		Reflashes:           r.Stats.Reflashes,
		DegradedMonitors:    r.Stats.DegradedMonitors,
		LinkRoundTrips:      r.Stats.LinkOps,
		LinkRetries:         r.Stats.LinkRetries,
		LinkReconnects:      r.Stats.LinkReconnects,
		LinkPerCmd:          r.LinkPerCmd,
		TriagedBugs:         r.Stats.TriagedBugs,
		TriageReplays:       r.Stats.TriageReplays,
		TimeBy:              r.TimeBy,
		Duration:            r.Duration,
		RungEscalations:     r.Stats.RungEscalations,
		PowerCycles:         r.Stats.PowerCycles,
		DeltaRestores:       r.Stats.DeltaRestores,
		FullRestores:        r.Stats.FullRestores,
		SnapshotTakes:       r.Stats.SnapshotTakes,
		RestoreBytesShipped: r.Stats.RestoreBytesShipped,
		RestoreBytesSkipped: r.Stats.RestoreBytesSkipped,
		Health:              convertHealth(r.Health),
	}
	for _, h := range r.BoardHealth {
		out.BoardHealth = append(out.BoardHealth, convertHealth(h))
	}
	for _, q := range r.Quarantines {
		out.Quarantines = append(out.Quarantines, QuarantineEvent{
			Slot: q.Slot, Board: q.Board, Spare: q.Spare,
			Reason: q.Reason, At: q.At, Health: convertHealth(q.Health),
			Tier: q.Tier,
		})
	}
	for _, t := range r.Tiers {
		tr := TierReport{
			Class: t.Class, Boards: t.Boards, Execs: t.Execs, Edges: t.Edges,
			TimeBy: t.TimeBy, ConfirmReplays: t.ConfirmReplays,
			Confirmed: t.Confirmed, Diverged: t.Diverged,
		}
		for _, s := range t.Series {
			tr.Series = append(tr.Series, Sample{At: s.At, Edges: s.Edges})
		}
		out.Tiers = append(out.Tiers, tr)
	}
	for _, d := range r.Divergences {
		out.Divergences = append(out.Divergences, Divergence{
			Kind: d.Kind, Cluster: d.Cluster, Edges: d.Edges,
			Prog: d.Prog, Shard: d.Shard, At: d.At,
		})
	}
	if len(r.Stats.RestoresByReason) > 0 {
		out.RestoresByReason = make(map[string]int, len(r.Stats.RestoresByReason))
		for k, v := range r.Stats.RestoresByReason {
			out.RestoresByReason[k] = v
		}
	}
	for _, b := range r.Bugs {
		nb := Bug{
			OS: b.OS, Board: b.Board, Title: b.Title, Signature: b.Sig,
			Kind: b.Kind, Monitor: b.Monitor, Log: b.Log,
			Reproducer: b.Prog, FoundAt: b.FoundAt, Trace: b.Trace,
			Cluster: b.Cluster, Reproducibility: b.Reproducibility,
			ReplayHits: b.ReplayHits, Replays: b.Replays,
			OrigCalls: b.OrigCalls, MinCalls: b.MinCalls, ReproJSON: b.Repro,
		}
		if b.Fault != nil {
			for _, fr := range b.Fault.Frames {
				nb.Backtrace = append(nb.Backtrace, fmt.Sprintf("%s : %s : %d", fr.File, fr.Func, fr.Line))
			}
		}
		out.Bugs = append(out.Bugs, nb)
	}
	for _, s := range r.Series {
		out.Series = append(out.Series, Sample{At: s.At, Edges: s.Edges})
	}
	return out
}

func convertHealth(h core.Health) HealthReport {
	return HealthReport{
		Score: h.Score, Restores: h.Restores, Reflashes: h.Reflashes,
		PowerCycles: h.PowerCycles, Escalations: h.Escalations, Dead: h.Dead,
	}
}

// GenerateSpec runs the specification pipeline for an OS and returns the
// validated Syzlang text plus any declarations that were dropped during
// post-validation.
func GenerateSpec(osName string) (text string, dropped []string, err error) {
	info, err := targets.ByName(osName)
	if err != nil {
		return "", nil, err
	}
	res, err := specgen.Generate(info)
	if err != nil {
		return "", nil, err
	}
	return res.Text, res.Dropped, nil
}
