package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime/pprof"
	"sort"
	"time"

	eof "github.com/eof-fuzz/eof"
	"github.com/eof-fuzz/eof/internal/backend"
	"github.com/eof-fuzz/eof/internal/boards"
	"github.com/eof-fuzz/eof/internal/core"
	"github.com/eof-fuzz/eof/internal/fleet"
	"github.com/eof-fuzz/eof/internal/targets"
	"github.com/eof-fuzz/eof/internal/trace"
)

// campaignSpec is a workload made of whole campaigns: each operation is one
// eof.NewCampaign(...).Run(budget) on one of the run's campaign seeds.
type campaignSpec struct {
	opts   func(seed int64) eof.Options
	budget time.Duration
	// seeds is how many campaign seeds one run cycles through; the
	// board-clock metrics average over them.
	seeds int
	// edgesN is the coverage target virtual_s_to_edges times, fixed per
	// workload.
	edgesN int
}

// tracedSeeds is how many of the seeds a traced run uses: per-layer
// metrics carry no bound, so they need less averaging.
const tracedSeeds = 4

// setupProbes is how many times a run brings the system up to measure
// setup_s (the median is reported).
const setupProbes = 9

// campaignSeeds derives a run's campaign seeds from the workload seed.
func campaignSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*1000 + int64(i) + 1
	}
	return out
}

// fingerprint is everything a campaign's board clock determines. Two runs
// of one seed must agree on it exactly, traced or not.
type fingerprint struct {
	Execs, Edges, Crashes, Restores, Reflashes, DeltaRestores int
	LinkRoundTrips, RestoreBytes                              int64
	TimeBy                                                    trace.TimeBy
	Duration                                                  time.Duration
	Bugs                                                      []string
	Series                                                    [][2]int64
	Tiers                                                     []tierPrint
}

type tierPrint struct {
	Class                                            string
	Boards, Execs, Edges                             int
	TimeBy                                           trace.TimeBy
	ConfirmReplays, Confirmed, Diverged, Divergences int
}

func fingerprintOf(r *eof.Report) fingerprint {
	fp := fingerprint{
		Execs: r.Execs, Edges: r.Edges, Crashes: r.Crashes, Restores: r.Restores,
		Reflashes: r.Reflashes, DeltaRestores: r.DeltaRestores,
		LinkRoundTrips: r.LinkRoundTrips, RestoreBytes: r.RestoreBytesShipped,
		TimeBy: r.TimeBy, Duration: r.Duration,
	}
	for _, b := range r.Bugs {
		fp.Bugs = append(fp.Bugs, b.Signature)
	}
	for _, s := range r.Series {
		fp.Series = append(fp.Series, [2]int64{int64(s.At), int64(s.Edges)})
	}
	for _, t := range r.Tiers {
		fp.Tiers = append(fp.Tiers, tierPrint{
			Class: t.Class, Boards: t.Boards, Execs: t.Execs, Edges: t.Edges, TimeBy: t.TimeBy,
			ConfirmReplays: t.ConfirmReplays, Confirmed: t.Confirmed, Diverged: t.Diverged,
		})
	}
	if len(fp.Tiers) > 0 {
		fp.Tiers[0].Divergences = len(r.Divergences)
	}
	return fp
}

func coreFingerprint(r *core.Report) fingerprint {
	fp := fingerprint{
		Execs: r.Stats.Execs, Edges: r.Edges, Crashes: r.Stats.Crashes, Restores: r.Stats.Restores,
		Reflashes: r.Stats.Reflashes, DeltaRestores: r.Stats.DeltaRestores,
		LinkRoundTrips: r.Stats.LinkOps, RestoreBytes: r.Stats.RestoreBytesShipped,
		TimeBy: r.TimeBy, Duration: r.Duration,
	}
	for _, b := range r.Bugs {
		fp.Bugs = append(fp.Bugs, b.Sig)
	}
	for _, s := range r.Series {
		fp.Series = append(fp.Series, [2]int64{int64(s.At), int64(s.Edges)})
	}
	for _, t := range r.Tiers {
		fp.Tiers = append(fp.Tiers, tierPrint{
			Class: t.Class, Boards: t.Boards, Execs: t.Execs, Edges: t.Edges, TimeBy: t.TimeBy,
			ConfirmReplays: t.ConfirmReplays, Confirmed: t.Confirmed, Diverged: t.Diverged,
		})
	}
	if len(fp.Tiers) > 0 {
		fp.Tiers[0].Divergences = len(r.Divergences)
	}
	return fp
}

// checkTimeBy applies the accounting invariant the report tests use: the
// board-time buckets sum to the run's board time exactly (Duration solo,
// Duration per activated board in a fleet), and the restore sub-buckets
// sum to the restoring bucket.
func checkTimeBy(fp fingerprint) error {
	boards := 1
	if len(fp.Tiers) > 0 {
		boards = 0
		for _, t := range fp.Tiers {
			boards += t.Boards
		}
	}
	tb := fp.TimeBy
	if want := fp.Duration * time.Duration(boards); tb.Sum() != want {
		return fmt.Errorf("TimeBy sums to %v, want %d x %v", tb.Sum(), boards, fp.Duration)
	}
	if tb.RestoringDelta+tb.RestoringFull != tb.Restoring {
		return fmt.Errorf("restore sub-buckets %v + %v != restoring %v", tb.RestoringDelta, tb.RestoringFull, tb.Restoring)
	}
	return nil
}

// campaignOp is one end-to-end operation through the public API.
func campaignOp(o eof.Options, budget time.Duration) (*eof.Report, error) {
	c, err := eof.NewCampaign(o)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Run(budget)
}

// bringUp measures the host seconds one campaign takes from construction to
// parked at the executor, ready to fuzz: NewCampaign plus a zero-budget Run
// (provision, boot, breakpoints, run-to-main and any snapshot capture).
func bringUp(o eof.Options) (float64, error) {
	span := startSpan()
	_, err := campaignOp(o, 0)
	s := span()
	return s.on(servedClock).Seconds(), errors.Join(err, s.err)
}

func medianSetup(o eof.Options) (float64, error) {
	var xs []float64
	for i := 0; i < setupProbes; i++ {
		d, err := bringUp(o)
		if err != nil {
			return 0, fmt.Errorf("bring-up: %w", err)
		}
		xs = append(xs, d)
	}
	return median(xs), nil
}

// repeatCheck holds each campaign seed's first fingerprint: every later
// run of the seed must repeat it exactly.
type repeatCheck []*fingerprint

// check verifies one finished operation on seed index i: it succeeded, its
// accounting invariant holds, and it repeats the seed's first run.
func (rc repeatCheck) check(i int, rep *eof.Report, err error) (fingerprint, error) {
	if err != nil {
		return fingerprint{}, err
	}
	fp := fingerprintOf(rep)
	if err := checkTimeBy(fp); err != nil {
		return fp, err
	}
	if rc[i] == nil {
		rc[i] = &fp
	} else if !reflect.DeepEqual(*rc[i], fp) {
		return fp, fmt.Errorf("board-clock results differ between two runs of one seed:\n first %+v\n again %+v", *rc[i], fp)
	}
	return fp, nil
}

func runCampaign(cs campaignSpec) func(params, *run) error {
	return func(p params, r *run) error {
		seeds := campaignSeeds(p.seed, cs.seeds)
		if p.traced {
			return tracedCampaign(cs, seeds[:tracedSeeds], p, r)
		}
		return e2eCampaign(cs, seeds, p, r)
	}
}

// e2eCampaign measures the end-to-end metrics: after an untimed warm-up
// campaign, a closed loop runs the seeds' campaigns round robin, in whole
// rounds, until the requested host time is spent. The first round always
// completes, so the board-clock metrics cover the same campaigns on every
// host. Throughput and turnaround are in served seconds; the wall and CPU
// clocks' throughput is printed as a note.
func e2eCampaign(cs campaignSpec, seeds []int64, p params, r *run) error {
	setup, err := medianSetup(cs.opts(seeds[0]))
	if err != nil {
		return err
	}
	rc := make(repeatCheck, len(seeds))
	// The warm-up also gives seed 0 the reference its timed run must repeat.
	rep, err := campaignOp(cs.opts(seeds[0]), cs.budget)
	_, err = rc.check(0, rep, err)
	r.op(err)

	var execs int
	var board time.Duration
	var turnaround, rss []float64
	start := time.Now()
	loop := startSpan()
	for round := 0; round == 0 || time.Since(start) < p.seconds; round++ {
		for i, seed := range seeds {
			resetErr := resetPeakRSS()
			span := startSpan()
			rep, err := campaignOp(cs.opts(seed), cs.budget)
			s := span()
			fp, err := rc.check(i, rep, err)
			mb, rssErr := peakRSSMB()
			if !r.op(errors.Join(err, resetErr, rssErr, s.err)) {
				continue
			}
			turnaround = append(turnaround, s.on(servedClock).Seconds())
			rss = append(rss, mb)
			execs += fp.Execs
			board += fp.TimeBy.Sum()
		}
	}
	total := loop()
	host := total.on(servedClock).Seconds()
	noteThroughput(r, total, execs, board, len(turnaround))

	r.set("execs_per_host_s", "1/s", float64(execs)/host)
	r.set("board_s_per_host_s", "s/s", board.Seconds()/host)
	r.set("jobs_per_host_s", "1/s", float64(len(turnaround))/host)
	r.set("setup_s", "s", setup)
	r.set("peak_rss_mb", "MB", median(rss))
	var firsts []fingerprint
	for _, fp := range rc {
		if fp != nil {
			firsts = append(firsts, *fp)
		}
	}
	reportBoardClock(r, firsts, cs.edgesN)
	reportJobs(r, turnaround)
	return nil
}

// reportBoardClock sets the board-clock metrics over a fixed set of
// campaigns: execs per board-hour, mean edges, distinct bug signatures
// across the set, and the board seconds at which the set's mean coverage
// curve reaches n edges.
func reportBoardClock(r *run, fps []fingerprint, n int) {
	var execs, boardH float64
	var edges []float64
	var series [][][2]int64
	sigs := map[string]bool{}
	for _, fp := range fps {
		execs += float64(fp.Execs)
		boardH += fp.TimeBy.Sum().Hours()
		edges = append(edges, float64(fp.Edges))
		series = append(series, fp.Series)
		for _, s := range fp.Bugs {
			sigs[s] = true
		}
	}
	r.set("execs_per_virtual_h", "1/h", ratio(execs, boardH))
	r.set("edges", "count", mean(edges))
	at, err := meanTimeToEdges(series, n)
	r.op(err)
	r.set("virtual_s_to_edges", "s", at)
	r.set("bugs", "count", float64(len(sigs)))
}

// reportJobs sets the failure and turnaround metrics: the success share and
// the median and tail of the operations' host turnaround.
func reportJobs(r *run, turnaround []float64) {
	r.set("success_pct", "%", 100*(1-ratio(float64(r.res.Failed), float64(r.res.Attempted))))
	r.set("job_turnaround_s_p50", "s", median(turnaround))
	v, pct := tail(turnaround)
	r.set("job_turnaround_s_tail", "s", v)
	r.note("job_turnaround_s_tail is p%.1f of %d jobs", pct, len(turnaround))
}

// meanTimeToEdges returns the board seconds at which the mean of several
// coverage step curves (samples of [time ns, edges]) first reaches n,
// interpolating linearly between sample times. Every curve must move
// forward in time with edges that never fall.
func meanTimeToEdges(series [][][2]int64, n int) (float64, error) {
	var times []int64
	for _, s := range series {
		for k, p := range s {
			if k > 0 && (p[0] < s[k-1][0] || p[1] < s[k-1][1]) {
				return 0, fmt.Errorf("coverage curve steps back from %v to %v", s[k-1], p)
			}
			times = append(times, p[0])
		}
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	edgesAt := func(s [][2]int64, t int64) float64 {
		e := 0.0
		for _, p := range s {
			if p[0] > t {
				break
			}
			e = float64(p[1])
		}
		return e
	}
	prevT, prevE := 0.0, 0.0
	for _, t := range times {
		sum := 0.0
		for _, s := range series {
			sum += edgesAt(s, t)
		}
		m := sum / float64(len(series))
		if m >= float64(n) {
			tt := time.Duration(t).Seconds()
			return prevT + (float64(n)-prevE)/(m-prevE)*(tt-prevT), nil
		}
		prevT, prevE = time.Duration(t).Seconds(), m
	}
	return 0, fmt.Errorf("mean coverage never reached the workload's %d-edge target", n)
}

// coreConfig rebuilds the engine configuration eof.NewCampaign derives from
// the options the campaign workloads set, so the traced run can insert its
// wrappers at the backend factory and the sinks.
func coreConfig(o eof.Options) (core.Config, error) {
	info, err := targets.ByName(o.OS)
	if err != nil {
		return core.Config{}, err
	}
	spec := boards.ByName(o.Board)
	if spec == nil {
		return core.Config{}, fmt.Errorf("unknown board %q", o.Board)
	}
	cfg := core.DefaultConfig(info, spec)
	cfg.Seed = o.Seed
	cfg.Snapshots = o.Snapshots
	if o.SampleEvery > 0 {
		cfg.SampleEvery = o.SampleEvery
	}
	return cfg, nil
}

// tracedOp runs one campaign through the wrapped stack: a timed backend
// factory, a timed journal sink hashing the journal, and the exec clock.
// It returns the report, the journal digest and the host time of Run.
func tracedOp(o eof.Options, budget time.Duration, sp *layerSpans, clk *execClock) (*core.Report, string, time.Duration, error) {
	cfg, err := coreConfig(o)
	if err != nil {
		return nil, "", 0, err
	}
	cfg.Backend = timedFactory(backend.Hardware(), sp)
	h := sha256.New()
	cfg.TraceSink = newJournalSink(h, &sp.sink)
	cfg.StatusSink = clk
	var rep *core.Report
	var runFor time.Duration
	if o.Tiers || o.Shards > 1 {
		f, err := fleet.New(cfg, fleet.Options{Shards: o.Shards, SyncEvery: o.SyncEvery, EmulShards: o.EmulShards})
		if err != nil {
			return nil, "", 0, err
		}
		defer f.Close()
		t0 := time.Now()
		rep, err = f.Run(budget)
		runFor = time.Since(t0)
		if err != nil {
			return nil, "", 0, err
		}
	} else {
		e, err := core.NewEngine(cfg)
		if err != nil {
			return nil, "", 0, err
		}
		defer e.Close()
		t0 := time.Now()
		rep, err = e.Run(budget)
		runFor = time.Since(t0)
		if err != nil {
			return nil, "", 0, err
		}
	}
	return rep, hex.EncodeToString(h.Sum(nil)), runFor, nil
}

// tracedPasses is the minimum number of traced rounds, so every run checks
// that a seed's journal repeats byte for byte.
const tracedPasses = 2

// tracedCampaign measures the per-layer metrics. One untraced round over
// the seeds gives the reference reports and host times; traced rounds then
// repeat the same campaigns through the wrapped stack under a CPU profile.
func tracedCampaign(cs campaignSpec, seeds []int64, p params, r *run) error {
	start := time.Now()
	rc := make(repeatCheck, len(seeds))
	rep, err := campaignOp(cs.opts(seeds[0]), cs.budget) // warm-up
	_, err = rc.check(0, rep, err)
	r.op(err)
	span := startSpan()
	for i, seed := range seeds {
		rep, err := campaignOp(cs.opts(seed), cs.budget)
		_, err = rc.check(i, rep, err)
		r.op(err)
	}
	untraced := span().on(servedClock)

	var sp layerSpans
	clk := newExecClock()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	digests := make([]string, len(seeds))
	var reports []*core.Report
	var runTime time.Duration
	rounds := 0
	span = startSpan()
	for ; rounds < tracedPasses || time.Since(start) < p.seconds; rounds++ {
		for i, seed := range seeds {
			rep, digest, runFor, err := tracedOp(cs.opts(seed), cs.budget, &sp, clk)
			runTime += runFor
			if err == nil {
				fp := coreFingerprint(rep)
				switch {
				case rc[i] == nil:
					err = fmt.Errorf("seed %d: no untraced report to compare with", seed)
				case !reflect.DeepEqual(fp, *rc[i]):
					err = fmt.Errorf("seed %d: traced report differs from untraced:\n untraced %+v\n traced   %+v", seed, *rc[i], fp)
				case digests[i] != "" && digests[i] != digest:
					err = fmt.Errorf("seed %d: journal digest %s differs from the first traced run's %s", seed, digest, digests[i])
				}
				digests[i] = digest
			}
			if r.op(err) && rounds == 0 {
				reports = append(reports, rep)
			}
		}
	}
	pprof.StopCPUProfile()
	traced := span().on(servedClock)
	ops := float64(rounds * len(seeds))

	if err := reportShares(r, prof.Bytes()); err != nil {
		return err
	}
	reportSpans(r, &sp, ops, runTime)
	p50, p99 := clk.quantiles()
	r.set("core.exec_host_us_p50", "us", p50)
	r.set("core.exec_host_us_p99", "us", p99)
	reportBoardLayers(r, reports)
	r.set("trace_overhead_pct", "%", 100*(ratio(traced.Seconds()/float64(rounds), untraced.Seconds())-1))
	// The daemon's scheduler, store and API are not in a campaign workload.
	r.set("corpus.checkpoints_per_slice", "1/slice", 0)
	r.set("sched.preempts", "count", 0)
	r.set("sched.fair_share_error_pct", "%", 0)
	r.set("server.submit.host_us", "us", 0)
	r.set("server.jobs.host_us", "us", 0)
	return nil
}

// reportShares folds the CPU profile into per-layer host shares. The run
// fails its check when under 95% of samples reach a named layer.
func reportShares(r *run, prof []byte) error {
	byLayer, err := foldProfile(prof)
	if err != nil {
		return err
	}
	var total int64
	for _, n := range byLayer {
		total += n
	}
	if total == 0 {
		return fmt.Errorf("CPU profile holds no samples")
	}
	for _, l := range layers {
		r.set("host_share."+l, "share", float64(byLayer[l])/float64(total))
	}
	attributed := 1 - float64(byLayer[""])/float64(total)
	r.set("profile.attributed_share", "share", attributed)
	r.note("CPU profile: %d samples, %.1f%% attributed to layers", total, 100*attributed)
	if attributed < 0.95 {
		r.op(fmt.Errorf("layer table attributes %.1f%% of CPU samples, want >= 95%%", 100*attributed))
	}
	return nil
}

// reportSpans sets the metrics timed at the backend, transport and sink
// boundaries, per operation.
func reportSpans(r *run, sp *layerSpans, ops float64, runTime time.Duration) {
	r.set("ocd.continue.calls", "count", float64(sp.cont.calls.Load())/ops)
	r.set("ocd.continue.host_us", "us", sp.cont.us()/ops)
	r.set("ocd.flash_write.host_us", "us", sp.flashWrite.us()/ops)
	r.set("ocd.flash_erase.host_us", "us", sp.flashErase.us()/ops)
	r.set("ocd.drain_cov.host_us", "us", sp.drainCov.us()/ops)
	r.set("ocd.restore_snapshot.host_us", "us", sp.restoreSnap.us()/ops)
	r.set("backend.provision_ms", "ms", ratio(sp.provision.ms(), float64(sp.provision.calls.Load())))
	r.set("backend.boot_ms", "ms", ratio(sp.boot.ms(), float64(sp.boot.calls.Load())))
	self := runTime.Nanoseconds() - sp.transportNS() - sp.sink.ns.Load()
	r.set("core.self_host_share", "share", ratio(float64(self), float64(runTime.Nanoseconds())))
}

// reportBoardLayers sets the board-clock layer metrics from the traced
// reports, summed over the run's seeds.
func reportBoardLayers(r *run, reps []*core.Report) {
	var tb trace.TimeBy
	var execs, restores, deltas, linkOps, shipped float64
	var emulExecs, tierExecs, confirmed, replays float64
	for _, rep := range reps {
		tb.Merge(rep.TimeBy)
		execs += float64(rep.Stats.Execs)
		restores += float64(rep.Stats.Restores)
		deltas += float64(rep.Stats.DeltaRestores)
		linkOps += float64(rep.Stats.LinkOps)
		shipped += float64(rep.Stats.RestoreBytesShipped)
		for _, t := range rep.Tiers {
			tierExecs += float64(t.Execs)
			if t.Class == backend.Emul.String() {
				emulExecs += float64(t.Execs)
			}
			// The hardware tier records the replays it ran and how many of
			// them confirmed an emulation finding.
			confirmed += float64(t.Confirmed)
			replays += float64(t.ConfirmReplays)
		}
	}
	r.set("core.timeby.reflashing_share", "share", tb.Share(trace.CatReflash))
	r.set("core.timeby.link_overhead_share", "share", tb.Share(trace.CatLink))
	r.set("core.timeby.restoring_share", "share", tb.Share(trace.CatRestore))
	r.set("fleet.timeby.sync_barrier_share", "share", tb.Share(trace.CatSync))
	r.set("fleet.timeby.confirming_share", "share", tb.Share(trace.CatConfirm))
	r.set("link.round_trips_per_exec", "1/exec", ratio(linkOps, execs))
	r.set("core.restores_per_kexec", "1/kexec", 1000*ratio(restores, execs))
	r.set("board.delta_restore_share", "share", ratio(deltas, restores))
	r.set("board.restore_bytes_per_restore", "B", ratio(shipped, deltas))
	r.set("fleet.tier.emul_exec_share", "share", ratio(emulExecs, tierExecs))
	r.set("fleet.tier.confirmed_per_replay", "share", ratio(confirmed, replays))
}
