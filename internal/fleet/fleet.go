// Package fleet shards one fuzzing campaign across a pool of virtual boards.
// N engines attach to N boards and run concurrently, each on an equal slice
// of the total board-time budget; their feedback cross-pollinates through a
// thread-safe shared coverage collector (live, order-independent set union)
// and an epoch-barrier corpus-sync exchange: at fixed virtual intervals every
// shard drains the new-coverage seeds, fresh edges and choice-table rewards
// it found, and the deltas are broadcast to sibling shards in shard order.
// Because each shard's execution between barriers is self-contained and
// deterministic, and the barrier exchange happens in a fixed order, the
// merged report is reproducible run to run for a fixed seed.
//
// The pool models the paper's practical deployment: on-hardware fuzzing is
// throughput-bound by the debug link and one board's execution speed, so
// labs attach several cheap boards to one host. Virtual time in this repo is
// board wall-clock, so a fleet report's Duration is the pool's wall-clock —
// total board-time divided by the shard count — and edges per Duration
// second is the pool's effective throughput.
//
// A board-health supervisor runs at every epoch barrier: a board whose
// engine reported core.ErrBoardDead — or whose health score fell below the
// sick threshold while a spare is available — is quarantined, and the next
// hot spare from the configured pool takes over its slot, re-seeded from the
// cumulative broadcast history so the newcomer starts with the fleet's
// collective corpus. One doomed board therefore costs the pool roughly one
// shard-epoch of throughput instead of the whole campaign.
//
// With EmulShards > 0 the fleet runs tiered: alongside the hardware pool, a
// wide pool of cheap emulated shards (backend.Emulated over a spec twin that
// keeps edge IDs comparable) explores the same campaign at emulation speed.
// The tiers share one direction of feedback — every hardware broadcast also
// reaches the emulation shards, but emulation discoveries never enter the
// hardware corpus or shared collector directly. Instead, each emulation
// shard queues its corpus admissions and crashes as confirmation items, and
// at every epoch barrier the fleet replays them on the hardware pool
// (round-robin over manned slots): a replay that reproduces the coverage or
// crash emits TierConfirm and feeds the hardware campaign normally, while a
// replay that does not emits TierDiverge and records a first-class
// cross-tier divergence on the merged report. Hardware stays the ground
// truth; emulation only proposes.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eof-fuzz/eof/internal/backend"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/core"
	"github.com/eof-fuzz/eof/internal/corpus"
	"github.com/eof-fuzz/eof/internal/cov"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/prog"
	"github.com/eof-fuzz/eof/internal/trace"
)

// DefaultSyncEvery is the epoch-barrier interval when Options leaves it
// unset: long enough that barrier overhead is negligible, short enough that
// a shard's discovery reaches siblings while it still matters.
const DefaultSyncEvery = 10 * time.Minute

// shardSeedStride separates shard RNG streams. Shard 0 keeps the configured
// seed, so a 1-shard fleet explores exactly like a solo engine.
const shardSeedStride = 1_000_003

// Options parameterises a fleet campaign.
type Options struct {
	// Shards is the number of boards in the pool (minimum 1).
	Shards int
	// SyncEvery is the virtual interval between feedback-exchange barriers
	// (default DefaultSyncEvery).
	SyncEvery time.Duration
	// Spares is the hot-spare pool size: boards built alongside the shards
	// (physical indices Shards..Shards+Spares-1) but held powered off until
	// the supervisor promotes one into a quarantined slot.
	Spares int
	// Degrade overrides the degradation model per physical board index
	// (shards first, then spares); boards beyond the slice inherit
	// cfg.Degrade. Tests and the resilience ablation use it to doom one
	// specific board.
	Degrade []board.DegradeConfig
	// EmulShards is the emulation explore tier's width: that many emulated
	// shards (physical indices after the hardware pool and the triage board)
	// run alongside the hardware slots, with their corpus admissions and
	// crashes re-executed on hardware at every epoch barrier. Zero disables
	// tiering entirely — the fleet behaves (and journals) exactly as an
	// all-hardware pool.
	EmulShards int
	// Persist, when non-nil, makes campaign state durable at every epoch
	// barrier: broadcast corpus admissions, the cumulative coverage bitmap,
	// crash clusters and per-shard cursors all land in the on-disk store
	// before the next epoch starts. Persistence runs on the supervisor
	// goroutine between epochs, so it never perturbs engine determinism.
	Persist *corpus.Persister
}

// Layout returns the physical board layout of a fleet with opts's shape, as
// the journal header's topology fields: the shards first, then the spares,
// then the triage board when triage is enabled, then the emulation shards.
// Counts are normalised the way New applies them (at least one shard, no
// negative spares or emulation shards). Everything that needs a board's
// physical index — New, the journal header, the live status and metrics
// sinks, the daemon's footprint — derives it from this one layout.
func Layout(opts Options, triage bool) trace.Header {
	return trace.Header{
		Shards:     max(opts.Shards, 1),
		Spares:     max(opts.Spares, 0),
		Triage:     triage,
		EmulShards: max(opts.EmulShards, 0),
	}
}

// tier is one class of boards driven through the same epoch loop: the
// hardware pool (the ground truth) or the emulation explore tier. Each tier
// runs its manned slots concurrently, feeds its own shared collector,
// exchanges feedback at every barrier and quarantines its dead boards; only
// the hardware tier has spares, so a lost emulation shard just narrows its
// tier.
type tier struct {
	class  backend.Class
	boards []int // every physical board the tier owns, ascending
	// slots maps each slot to the physical board serving it (-1 when the
	// slot is unmanned because the spare pool ran dry); spares is the FIFO
	// of boards still in reserve.
	slots  []int
	spares []int
	shared *cov.Collector
	series []core.CoverSample
	// flushQueue holds, per slot, retired boards whose final events (ending
	// in their quarantine) must flush before the slot's current occupant's
	// stream.
	flushQueue [][]int
}

// manned returns how many of the tier's slots currently have a board.
func (t *tier) manned() int {
	n := 0
	for _, b := range t.slots {
		if b >= 0 {
			n++
		}
	}
	return n
}

// tierEpoch is one tier's view of an epoch: the boards that ran it (a
// snapshot of the slots taken before the slice), their RunFor errors
// (non-nil only for boards that died) and the sync deltas they drained.
type tierEpoch struct {
	occ    []int
	errs   []error
	deltas []core.SyncDelta
}

// Fleet is one sharded campaign over a board pool with hot-spare failover.
type Fleet struct {
	opts    Options
	engines []*core.Engine // physical boards, in Layout order
	ran     bool

	// tiers holds the hardware pool first, then the emulation tier when
	// EmulShards > 0. Feedback flows toward emulation only: a tier imports
	// from itself and from every tier closer to hardware ground truth.
	// active marks boards that were ever powered on (their reports merge
	// into the campaign report).
	tiers  []*tier
	active []bool

	// stop is the graceful-shutdown flag: set from a signal handler, checked
	// after each epoch barrier so the campaign drains with a final durable
	// checkpoint instead of dying mid-epoch.
	stop atomic.Bool

	// history accumulates every hardware broadcast delta so a promoted spare
	// can be re-seeded with the fleet's collective feedback at promotion
	// time.
	history     core.SyncDelta
	quarantines []core.Quarantine

	sickThreshold float64

	// journal is the campaign-level trace sink (cfg.TraceSink); each board
	// writes into its own buffer, drained into the journal in tier and slot
	// order at every epoch barrier so the merged stream is deterministic.
	journal trace.Sink
	buffers []*trace.Buffer

	// triageIdx is the dedicated triage board's physical index (after the
	// spares; -1 when triage is disabled). Shards run with deferred triage
	// and the fleet drains their queues onto this board at every epoch
	// barrier in slot order, so findings are confirmed on different
	// hardware than found them and the merged journal stays deterministic.
	// triaged caches completed verdicts by cluster so a finding another
	// shard already confirmed is copied, not replayed again.
	triageIdx  int
	triageDead bool
	triaged    map[string]*core.BugReport

	// Confirmation state: confirmNext is the persistent round-robin cursor
	// over manned hardware slots for replays of emulation findings.
	confirmNext int
	divergences []core.TierDivergence
	confirmed   int
	diverged    int

	shardReports []*core.Report
}

// New builds the pool Layout(opts, cfg.Triage.Enabled) describes. Physical
// board i runs with seed cfg.Seed + i*stride and feeds its tier's shared
// collector. The board seed also feeds each board's link-fault injector and
// degradation model (when their Seeds are zero), so every board in the pool
// ages and faults deterministically but differently.
func New(cfg core.Config, opts Options) (*Fleet, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	lay := Layout(opts, cfg.Triage.Enabled)
	f := &Fleet{
		opts:          opts,
		sickThreshold: cfg.Health.WithDefaults().SickThreshold,
		journal:       cfg.TraceSink,
		triageIdx:     -1,
		triaged:       make(map[string]*core.BugReport),
	}
	hw := &tier{class: backend.HW, shared: cov.NewCollector()}
	f.tiers = []*tier{hw}
	var emul *tier
	if lay.EmulShards > 0 {
		emul = &tier{class: backend.Emul, shared: cov.NewCollector()}
		f.tiers = append(f.tiers, emul)
	}
	if lay.Triage {
		// One extra physical board, dedicated to triage: shards defer
		// (enqueue only) and the barrier drains their queues onto it.
		f.triageIdx = lay.HardwareBoards() - 1
	}
	// The emulation tier's boards come last, so every hardware board keeps
	// the physical index — and therefore the seed, fault stream and journal
	// position — it would have in an untiered fleet.
	emulStart := lay.HardwareBoards()
	for i := 0; i < emulStart+lay.EmulShards; i++ {
		scfg := cfg
		scfg.Seed = cfg.Seed + int64(i)*shardSeedStride
		scfg.Shard = i
		t := hw
		switch {
		case i >= emulStart:
			t = emul
			t.slots = append(t.slots, i)
			scfg.Backend = backend.Emulated()
			scfg.Board = backend.EmulSpecFor(cfg.Board)
			scfg.ConfirmCapture = true
			// Emulation findings are provisional: no triage, no link faults,
			// no hardware aging — the VM substrate has none of those failure
			// modes, and crashes are confirmed (and then triaged) on hardware
			// instead.
			scfg.Triage = core.TriageConfig{}
			scfg.LinkFaults = link.FaultConfig{}
			scfg.Degrade = board.DegradeConfig{}
		case i == f.triageIdx:
			// The triage board serves no slot; barriers drain onto it.
		case i < lay.Shards:
			hw.slots = append(hw.slots, i)
		default:
			hw.spares = append(hw.spares, i)
		}
		if scfg.Triage.Enabled {
			scfg.Triage.Deferred = true
		}
		if i < len(opts.Degrade) && i < lay.Shards+lay.Spares {
			scfg.Degrade = opts.Degrade[i]
		}
		if f.journal != nil {
			// Buffer per board; the barrier merges in tier and slot order so
			// the journal stays deterministic. The live StatusSink
			// (thread-safe by contract) stays attached directly.
			buf := trace.NewBuffer()
			f.buffers = append(f.buffers, buf)
			scfg.TraceSink = buf
		}
		e, err := core.NewEngine(scfg)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: board %d: %w", i, err)
		}
		e.SetSharedSink(t.shared)
		t.boards = append(t.boards, i)
		f.engines = append(f.engines, e)
	}
	for _, t := range f.tiers {
		t.flushQueue = make([][]int, len(t.slots))
	}
	f.active = make([]bool, len(f.engines))
	return f, nil
}

// Engines exposes the pool in physical-board order (shards, spares, the
// triage board, then the emulation tier) for tests and experiment harnesses.
func (f *Fleet) Engines() []*core.Engine { return f.engines }

// SharedEdges returns the hardware tier's fleet-wide distinct edge count so
// far (the campaign's ground-truth coverage).
func (f *Fleet) SharedEdges() int { return f.tiers[0].shared.Total() }

// Quarantines returns the quarantine records so far, in supervision order.
func (f *Fleet) Quarantines() []core.Quarantine { return f.quarantines }

// RequestStop asks the fleet to drain at the next epoch barrier: every
// engine ends its current slice at an iteration boundary, the barrier runs
// normally (feedback exchange, supervision, journal flush, and the final
// persistence checkpoint when configured), then Run returns the merged
// report. Safe to call from another goroutine.
func (f *Fleet) RequestStop() {
	f.stop.Store(true)
	for _, e := range f.engines {
		e.RequestStop()
	}
}

// SeedFrom pre-seeds the whole pool from a resumed campaign's persisted
// state before Run: the delta's edges become pre-seen in the hardware
// collector and every engine, its seeds join every corpus, and the cluster
// keys are marked known so the previous run's findings are not re-reported.
// The delta also joins the broadcast history, so spares promoted later
// inherit the resumed corpus exactly like live discoveries.
func (f *Fleet) SeedFrom(d core.SyncDelta, clusters []string) {
	f.tiers[0].shared.Ingest(d.Edges)
	for _, e := range f.engines {
		e.ImportSyncDelta(d)
		e.MarkKnownClusters(clusters)
	}
	f.appendHistory(d)
}

// Run executes the campaign with the given total board-time budget, split
// evenly across the hardware slots: each slot fuzzes for total/Shards of
// virtual board time, so the pool's wall-clock is total/Shards; emulation
// shards run the same slices alongside. Boards that die mid-campaign are
// quarantined at the next epoch barrier and replaced from the spare pool;
// Run only fails when every hardware slot is unmanned (or on a non-death
// engine error). Run may be called once.
func (f *Fleet) Run(total time.Duration) (*core.Report, error) {
	if f.ran {
		return nil, fmt.Errorf("fleet: Run called twice")
	}
	f.ran = true
	hw := f.tiers[0]
	shardBudget := total / time.Duration(len(hw.slots))

	// Provision and boot sequentially, hardware first: board bring-up
	// mutates no shared state, but a deterministic order keeps any
	// setup-time failure and its quarantine/promotion handling stable.
	for _, t := range f.tiers {
		for slot := range t.slots {
			if err := f.manSlot(t, slot); err != nil {
				return nil, err
			}
		}
		if hw.manned() == 0 {
			f.flushJournal()
			return nil, fmt.Errorf("fleet: every board died during setup: %w", core.ErrBoardDead)
		}
	}

	var elapsed time.Duration
	epochs := 0
	for remaining := shardBudget; remaining > 0; remaining -= f.opts.SyncEvery {
		slice := min(f.opts.SyncEvery, remaining)
		// Run the epoch slice on every manned slot of every tier
		// concurrently, then drain each board's feedback. Each engine owns
		// its board, link and RNG; the only shared state is a
		// mutex-protected collector sink per tier, whose set union is
		// order-independent.
		ep := make([]tierEpoch, len(f.tiers))
		var wg sync.WaitGroup
		for i, t := range f.tiers {
			ep[i].occ = append([]int(nil), t.slots...)
			ep[i].errs = make([]error, len(t.slots))
			ep[i].deltas = make([]core.SyncDelta, len(t.slots))
			for slot, b := range ep[i].occ {
				if b < 0 {
					continue
				}
				wg.Add(1)
				go func(e *core.Engine, errp *error, dp *core.SyncDelta) {
					defer wg.Done()
					*errp = e.RunFor(slice)
					*dp = e.DrainSyncDelta()
				}(f.engines[b], &ep[i].errs[slot], &ep[i].deltas[slot])
			}
		}
		wg.Wait()
		// A dead board is the supervisor's job at the barrier below; any
		// other engine error stays campaign-fatal.
		for i, t := range f.tiers {
			for slot, err := range ep[i].errs {
				if err != nil && !errors.Is(err, core.ErrBoardDead) {
					return nil, fmt.Errorf("fleet: %s shard %d: %w", t.class, slot, err)
				}
			}
		}
		elapsed += slice
		epochs++

		// Barrier: exchange feedback in fixed tier and slot order so every
		// board sees the same import sequence run to run. A dying board's
		// final partial delta still broadcasts — its discoveries outlive it.
		// Feedback flows from hardware toward emulation and between siblings
		// of a tier, never from emulation to hardware: the hardware corpus
		// only sees emulation discoveries through a confirmed replay, so an
		// emulation-only artifact cannot steer the ground-truth tier.
		for _, d := range ep[0].deltas {
			f.appendHistory(d)
		}
		for i := range f.tiers {
			for slot, b := range ep[i].occ {
				if b < 0 || ep[i].errs[slot] != nil {
					continue
				}
				for _, src := range ep[:i+1] {
					for k, ob := range src.occ {
						if ob >= 0 && ob != b {
							f.engines[b].ImportSyncDelta(src.deltas[k])
						}
					}
				}
			}
		}

		// Supervise in tier and slot order: journal the epoch for survivors
		// against their tier's collector, quarantine dead boards, retire the
		// chronically sick (only when a spare is ready — a sick board still
		// beats an empty slot), promote spares.
		for i, t := range f.tiers {
			for slot, b := range ep[i].occ {
				if b < 0 {
					continue
				}
				if ep[i].errs[slot] != nil {
					if err := f.quarantine(t, slot, "dead", elapsed); err != nil {
						return nil, err
					}
					continue
				}
				e := f.engines[b]
				e.Tracer().Emit(trace.Event{Kind: trace.SyncEpoch, Exec: epochs, Edges: t.shared.Total()})
				if e.Health().Sick(f.sickThreshold) && len(t.spares) > 0 {
					if err := f.quarantine(t, slot, "sick", elapsed); err != nil {
						return nil, err
					}
				}
			}
		}
		for _, src := range ep[1:] {
			if err := f.runConfirm(src.occ, elapsed); err != nil {
				return nil, err
			}
		}
		if err := f.runTriage(ep[0].occ); err != nil {
			return nil, err
		}
		f.flushJournal()
		if err := f.persistBarrier(epochs, elapsed, ep[0].deltas); err != nil {
			return nil, err
		}
		if hw.manned() == 0 {
			return nil, fmt.Errorf("fleet: every board dead after %v: %w", elapsed, core.ErrBoardDead)
		}
		for _, t := range f.tiers {
			t.series = append(t.series, core.CoverSample{At: elapsed, Edges: t.shared.Total()})
		}
		if f.stop.Load() {
			// Graceful shutdown: the barrier above already exchanged the last
			// feedback, flushed the journal and committed the final
			// checkpoint; end the campaign cleanly with a merged report.
			break
		}
	}
	return f.mergeReport(), nil
}

// Admissions converts a drained sync delta into the durable store's corpus
// admissions, attributed to slot.
func Admissions(d core.SyncDelta, slot int) ([]corpus.Admission, error) {
	var out []corpus.Admission
	for _, s := range d.Seeds {
		blob, err := prog.ToJSON(s.P)
		if err != nil {
			return nil, fmt.Errorf("persist slot %d seed: %w", slot, err)
		}
		out = append(out, corpus.Admission{Prog: blob, NewEdges: s.NewEdges, Edges: s.Edges, Shard: slot})
	}
	return out, nil
}

// persistBarrier commits one completed epoch to the durable store: every
// broadcast seed with its edge attribution, the fleet-wide coverage bitmap,
// the known crash clusters and each slot's resume cursor. Runs after the
// journal flush so persistence events land at a deterministic stream
// position; errors are campaign-fatal (a store that cannot accept writes is
// losing the work the campaign exists to accumulate).
func (f *Fleet) persistBarrier(epoch int, elapsed time.Duration, deltas []core.SyncDelta) error {
	p := f.opts.Persist
	if p == nil {
		return nil
	}
	hw := f.tiers[0]
	b := corpus.Barrier{Epoch: epoch, Elapsed: elapsed, Edges: hw.shared.Edges()}
	for slot, d := range deltas {
		adm, err := Admissions(d, slot)
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		b.Admissions = append(b.Admissions, adm...)
	}
	clusters := make(map[string]bool)
	for bd, e := range f.engines {
		if !f.active[bd] {
			continue
		}
		for _, c := range e.KnownClusters() {
			clusters[c] = true
		}
	}
	for c := range clusters {
		b.Clusters = append(b.Clusters, c)
	}
	for slot, bd := range hw.slots {
		cur := corpus.ShardCursor{Shard: slot}
		if bd >= 0 {
			cur.Execs = f.engines[bd].Execs()
		}
		b.Cursors = append(b.Cursors, cur)
	}
	return p.Barrier(b)
}

// manSlot performs initial bring-up of the board serving t's slot,
// quarantining setup-time deaths and promoting spares until the slot is
// manned or the tier's spare pool runs dry.
func (f *Fleet) manSlot(t *tier, slot int) error {
	b := t.slots[slot]
	f.active[b] = true
	err := f.engines[b].Setup()
	if err == nil {
		return nil
	}
	if !errors.Is(err, core.ErrBoardDead) {
		return fmt.Errorf("fleet: %s shard %d setup: %w", t.class, slot, err)
	}
	return f.quarantine(t, slot, "dead", 0)
}

// quarantine retires the board serving t's slot and promotes the tier's
// next viable spare into it. The retired board's buffered events (ending
// with its quarantine event) flush ahead of the slot's next occupant,
// keeping the journal deterministic.
func (f *Fleet) quarantine(t *tier, slot int, reason string, at time.Duration) error {
	b := t.slots[slot]
	t.slots[slot] = -1
	f.retire(t, slot, b, reason, at)
	qi := len(f.quarantines) - 1
	spare, err := f.promote(t, slot, at)
	if err != nil {
		return err
	}
	f.quarantines[qi].Spare = spare
	return nil
}

// retire journals board b's quarantine from t's slot, queues its buffered
// events to flush ahead of the slot's next occupant and records it.
// Hardware quarantines leave the record's Tier empty.
func (f *Fleet) retire(t *tier, slot, b int, reason string, at time.Duration) {
	e := f.engines[b]
	e.Tracer().Emit(trace.Event{Kind: trace.Quarantine, Exec: slot, Reason: reason})
	t.flushQueue[slot] = append(t.flushQueue[slot], b)
	q := core.Quarantine{Slot: slot, Board: b, Spare: -1, Reason: reason, At: at, Health: e.Health()}
	if t.class != backend.HW {
		q.Tier = t.class.String()
	}
	f.quarantines = append(f.quarantines, q)
}

// promote mans t's slot with the next spare that survives bring-up,
// importing the cumulative broadcast history so the newcomer starts from the
// fleet's collective corpus. Returns -1 when the spare pool ran dry. A spare
// that is dead on arrival earns its own quarantine record and the next one
// is tried.
func (f *Fleet) promote(t *tier, slot int, at time.Duration) (int, error) {
	for len(t.spares) > 0 {
		s := t.spares[0]
		t.spares = t.spares[1:]
		e := f.engines[s]
		f.active[s] = true
		if err := e.Setup(); err != nil {
			if !errors.Is(err, core.ErrBoardDead) {
				return -1, fmt.Errorf("fleet: spare %d setup: %w", s, err)
			}
			f.retire(t, slot, s, "dead", at)
			continue
		}
		e.ImportSyncDelta(f.history)
		e.Tracer().Emit(trace.Event{Kind: trace.SparePromote, Exec: slot, Edges: len(f.history.Edges)})
		t.slots[slot] = s
		return s, nil
	}
	return -1, nil
}

// runTriage drains every occupant's deferred triage queue onto the dedicated
// triage board, in slot order so replay verdicts and journal events are
// identical run to run. A finding whose cluster was already confirmed —
// possibly by a different shard — inherits the cached verdict instead of
// burning board time on a duplicate. Dead boards still appear in occupants,
// so a dying shard's last findings get triaged too. If the triage board
// itself dies, the remaining findings stay untriaged rather than killing the
// campaign.
func (f *Fleet) runTriage(occupants []int) error {
	if f.triageIdx < 0 {
		return nil
	}
	te := f.engines[f.triageIdx]
	for _, b := range occupants {
		if b < 0 {
			continue
		}
		for _, item := range f.engines[b].DrainTriageQueue() {
			if prior, ok := f.triaged[item.Bug.Cluster]; ok {
				copyTriage(prior, item.Bug)
				continue
			}
			if f.triageDead {
				continue
			}
			f.active[f.triageIdx] = true
			if err := te.TriageBug(item.Bug, item.P); err != nil {
				if !errors.Is(err, core.ErrBoardDead) {
					return fmt.Errorf("fleet: triage board: %w", err)
				}
				f.triageDead = true
			}
			f.triaged[item.Bug.Cluster] = item.Bug
		}
	}
	return nil
}

// runConfirm drains the confirmation queue of every board in occ (one
// emulation tier's epoch occupants), in slot order, and replays each item on
// the hardware pool round-robin (the cursor persists across barriers so
// replay load spreads evenly). Dead emulation shards still appear in occ, so
// a dying shard's last findings are confirmed too.
func (f *Fleet) runConfirm(occ []int, at time.Duration) error {
	for _, b := range occ {
		if b < 0 {
			continue
		}
		for _, item := range f.engines[b].DrainConfirmQueue() {
			if err := f.confirmOne(b, item, at); err != nil {
				return err
			}
		}
	}
	return nil
}

// confirmOne re-executes one emulation-tier item on the next manned hardware
// slot and classifies the outcome. A replay that kills its board quarantines
// the slot and retries the item on the next one; the campaign only fails when
// no hardware board remains to confirm on.
func (f *Fleet) confirmOne(src int, item core.ConfirmItem, at time.Duration) error {
	for {
		slot := f.nextConfirmSlot()
		if slot < 0 {
			return fmt.Errorf("fleet: every hardware board dead during confirmation: %w", core.ErrBoardDead)
		}
		e := f.engines[f.tiers[0].slots[slot]]
		res, err := e.ConfirmProg(item.P)
		if err != nil {
			if errors.Is(err, core.ErrBoardDead) {
				if qerr := f.quarantine(f.tiers[0], slot, "dead", at); qerr != nil {
					return qerr
				}
				continue
			}
			return fmt.Errorf("fleet: confirm replay: %w", err)
		}
		f.classify(e, src, item, res, at)
		return nil
	}
}

// nextConfirmSlot returns the next manned hardware slot in round-robin
// order, or -1 when every slot is unmanned.
func (f *Fleet) nextConfirmSlot() int {
	slots := f.tiers[0].slots
	n := len(slots)
	for i := 0; i < n; i++ {
		slot := (f.confirmNext + i) % n
		if slots[slot] >= 0 {
			f.confirmNext = (slot + 1) % n
			return slot
		}
	}
	return -1
}

// classify compares what the emulation tier claimed against what the
// hardware replay observed, emitting TierConfirm / TierDiverge on the
// confirming engine's tracer (src is the emulation shard's physical index).
// Three divergence kinds exist: coverage the hardware run never executed,
// an emulation crash hardware cannot reproduce, and a hardware crash the
// emulation run never hit. The replay itself already fed the hardware
// campaign — a confirmed seed joined the corpus and sync delta inside
// ConfirmProg, and a hardware crash was recorded as a native finding — so
// classification only has to score the comparison.
func (f *Fleet) classify(e *core.Engine, src int, item core.ConfirmItem, res core.ConfirmResult, at time.Duration) {
	tr := e.Tracer()
	if item.Bug != nil {
		if res.Bug != nil && res.Bug.Cluster == item.Bug.Cluster {
			f.confirmed++
			tr.Emit(trace.Event{Kind: trace.TierConfirm, Exec: src, Reason: "crash:" + item.Bug.Cluster})
		} else {
			f.diverged++
			tr.Emit(trace.Event{Kind: trace.TierDiverge, Exec: src, Reason: "emul-only-crash:" + item.Bug.Cluster})
			f.divergences = append(f.divergences, core.TierDivergence{
				Kind: "emul-only-crash", Cluster: item.Bug.Cluster, Prog: item.P.String(), Shard: src, At: at,
			})
		}
		return
	}
	got := make(map[uint32]bool, len(res.Edges))
	for _, id := range res.Edges {
		got[id] = true
	}
	missing := 0
	for _, id := range item.Edges {
		if !got[id] {
			missing++
		}
	}
	if missing == 0 {
		f.confirmed++
		tr.Emit(trace.Event{Kind: trace.TierConfirm, Exec: src, Reason: "cov", Edges: len(item.Edges)})
	} else {
		f.diverged++
		tr.Emit(trace.Event{Kind: trace.TierDiverge, Exec: src, Reason: "emul-only-cov", Edges: missing})
		f.divergences = append(f.divergences, core.TierDivergence{
			Kind: "emul-only-cov", Edges: missing, Prog: item.P.String(), Shard: src, At: at,
		})
	}
	if res.Bug != nil {
		f.diverged++
		tr.Emit(trace.Event{Kind: trace.TierDiverge, Exec: src, Reason: "hw-only-crash:" + res.Bug.Cluster})
		f.divergences = append(f.divergences, core.TierDivergence{
			Kind: "hw-only-crash", Cluster: res.Bug.Cluster, Prog: item.P.String(), Shard: src, At: at,
		})
	}
}

// copyTriage copies a cached triage verdict onto a duplicate finding.
func copyTriage(from, to *core.BugReport) {
	to.Reproducibility = from.Reproducibility
	to.ReplayHits = from.ReplayHits
	to.Replays = from.Replays
	to.OrigCalls = from.OrigCalls
	to.MinCalls = from.MinCalls
	to.Repro = from.Repro
	to.Prog = from.Prog
}

// appendHistory accumulates a broadcast delta into the promotion history.
// ImportSyncDelta clones seed programs on import, so sharing the slices with
// the original broadcast is safe.
func (f *Fleet) appendHistory(d core.SyncDelta) {
	f.history.Edges = append(f.history.Edges, d.Edges...)
	f.history.Seeds = append(f.history.Seeds, d.Seeds...)
	f.history.Rewards = append(f.history.Rewards, d.Rewards...)
}

// flushJournal drains buffered events into the campaign journal in tier and
// slot order: for each slot, first its retired boards (their streams end with
// the quarantine event), then its current occupant. The triage board's
// events, all produced at the barrier after every shard's slice, close the
// hardware tier; appending the emulation tier after it keeps the hardware
// prefix of a tiered journal identical to the untiered journal. Supervision
// happens in the same order before the flush, so the merged stream is
// identical run to run.
func (f *Fleet) flushJournal() {
	if f.journal == nil {
		return
	}
	for _, t := range f.tiers {
		for slot, b := range t.slots {
			for _, r := range t.flushQueue[slot] {
				f.flushBuffer(r)
			}
			t.flushQueue[slot] = nil
			if b >= 0 {
				f.flushBuffer(b)
			}
		}
		if t == f.tiers[0] && f.triageIdx >= 0 {
			f.flushBuffer(f.triageIdx)
		}
	}
}

func (f *Fleet) flushBuffer(b int) {
	for _, ev := range f.buffers[b].Drain() {
		f.journal.Emit(ev)
	}
}

// ShardReports returns each activated board's individual report from the
// finished campaign, in physical-board order (quarantined boards and
// promoted spares included), with fleet sync-barrier idle time already
// attributed (a board's SyncBarrier covers how much longer the pool ran
// than it did). Nil before Run completes.
func (f *Fleet) ShardReports() []*core.Report { return f.shardReports }

// mergeReport folds the activated boards' reports into one campaign report
// with stable ordering: stats summed in physical-board order, bugs
// deduplicated by cluster in (board, discovery) order, Duration = the
// longest board's virtual runtime (= the pool's wall-clock, since slots run
// concurrently). Board-time accounting: a board that finished early — or
// died early, or joined late as a spare — sat out the rest of the pool's
// wall-clock, so the gap to the pool Duration is charged to its SyncBarrier
// bucket; afterwards every activated board's TimeBy sums to the pool
// Duration and the merged TimeBy sums to activated-boards x Duration. The
// merged Health is the pool's sickest board; BoardHealth and Quarantines
// carry the full story. A tiered fleet also reports one TierStats per tier.
func (f *Fleet) mergeReport() *core.Report {
	hw := f.tiers[0]
	out := &core.Report{
		Series: hw.series, Edges: hw.shared.Total(),
		Quarantines: f.quarantines, Divergences: f.divergences,
	}
	seen := make(map[string]bool)
	reps := make([]*core.Report, len(f.engines)) // nil for boards never activated
	f.shardReports = f.shardReports[:0]
	for b, e := range f.engines {
		if !f.active[b] {
			continue
		}
		r := e.Report()
		reps[b] = r
		f.shardReports = append(f.shardReports, r)
		out.Stats.Merge(r.Stats)
		out.BoardHealth = append(out.BoardHealth, r.Health)
		if len(f.shardReports) == 1 || healthWorse(r.Health, out.Health) {
			out.Health = r.Health
		}
		for _, bug := range r.Bugs {
			// An emulation-tier finding is provisional: if hardware
			// reproduced it, the confirmation replay recorded it natively on
			// the hardware tier; if not, it lives on as a TierDivergence.
			// Either way the merged bug list carries only ground truth.
			if bug.Tier == backend.Emul.String() {
				continue
			}
			key := bug.Cluster
			if key == "" {
				key = bug.Sig
			}
			if !seen[key] {
				seen[key] = true
				out.Bugs = append(out.Bugs, bug)
			}
		}
		if r.Duration > out.Duration {
			out.Duration = r.Duration
		}
	}
	for _, r := range f.shardReports {
		r.TimeBy.SyncBarrier += out.Duration - r.Duration
		out.TimeBy.Merge(r.TimeBy)
	}
	for _, t := range f.tiers {
		ts := core.TierStats{Class: t.class.String(), Edges: t.shared.Total(), Series: t.series}
		for _, b := range t.boards {
			r := reps[b]
			if r == nil {
				continue
			}
			if t == hw {
				out.OS, out.Board = r.OS, r.Board
			}
			ts.Boards++
			ts.Execs += r.Stats.Execs
			ts.ConfirmReplays += r.Stats.ConfirmReplays
			ts.TimeBy.Merge(r.TimeBy)
		}
		out.Tiers = append(out.Tiers, ts)
	}
	if len(out.Tiers) == 1 {
		out.Tiers = nil
	} else {
		out.Tiers[0].Confirmed, out.Tiers[0].Diverged = f.confirmed, f.diverged
	}
	// Journal each activated board's final time budget now that barrier-idle
	// time is attributed (every shard's buckets sum to the pool Duration), then
	// drain the buffers one last time. The last barrier already flushed the
	// per-slot queues, so a straight physical-order pass over the activated
	// boards is deterministic.
	for b, e := range f.engines {
		if r := reps[b]; r != nil {
			e.EmitTimeBudget(r.TimeBy, out.Duration)
		}
	}
	if f.journal != nil {
		for b := range f.engines {
			if f.active[b] {
				f.flushBuffer(b)
			}
		}
	}
	return out
}

// healthWorse reports whether a is in worse shape than b.
func healthWorse(a, b core.Health) bool {
	if a.Dead != b.Dead {
		return a.Dead
	}
	return a.Score < b.Score
}

// Close releases every board's debug link and core, spares included.
func (f *Fleet) Close() {
	for _, e := range f.engines {
		e.Close()
	}
}
