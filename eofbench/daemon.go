package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"time"

	eof "github.com/eof-fuzz/eof"
	"github.com/eof-fuzz/eof/internal/core"
	"github.com/eof-fuzz/eof/internal/server"
	"github.com/eof-fuzz/eof/internal/trace"
)

// The daemon workload: an in-process eofd over a 2-board pool. Two tenants
// with weights 1:2 each keep daemonOutstanding jobs in flight; each tenant's
// jobs cycle through the five OSes, so every slice rebuilds a campaign and
// resumes it from its fsync'd checkpoint.
var daemonOSes = []string{"freertos", "rtthread", "zephyr", "nuttx", "pokos"}

var daemonTenants = []struct {
	name   string
	weight int
}{{"a", 1}, {"b", 2}}

const (
	daemonBoards      = 2
	daemonOutstanding = 2
	daemonJobMinutes  = 4
	// daemonFixedCycles is how many cycles of distinct specs each tenant
	// runs first; they are the board-clock metrics' fixed input.
	daemonFixedCycles = 5
	daemonQuantum     = 30 * time.Second
	daemonEdgesN      = 600
	daemonPoll        = 2 * time.Millisecond
)

// daemonSpecs returns each tenant's distinct job specs, daemonFixedCycles
// cycles of one job per OS, seeded from the workload seed.
func daemonSpecs(seed int64) [][]eof.Options {
	out := make([][]eof.Options, len(daemonTenants))
	for ti := range daemonTenants {
		for k := 0; k < daemonFixedCycles*len(daemonOSes); k++ {
			out[ti] = append(out[ti], eof.Options{
				OS:    daemonOSes[(k+ti)%len(daemonOSes)],
				Board: "stm32h745",
				Seed:  seed*1000 + int64(ti*100+k) + 1,
			})
		}
	}
	return out
}

// jobPrint is everything a daemon job's board clock determines.
type jobPrint struct {
	Execs, Edges, Bugs, Checkpoints, Slices int
	UsedNS, ChargedNS                       int64
	Journal                                 string
}

// jobJournal is what the benchmark reads back from a job's journal.
type jobJournal struct {
	digest string
	curve  [][2]int64 // [job virtual ns, cumulative edges]
	sigs   []string
	// boardNS is the board time the job's slices accounted, summed.
	boardNS int64
}

// readJobJournal digests a job's journal and rebuilds its coverage curve on
// the basis a campaign's Series uses: board time since fuzzing started.
// Each slice starts a new header and a fresh engine whose clock also counts
// the slice's bring-up, so a slice's events are rebased on its first
// exec-begin and offset by the board time the slices before it accounted
// (their "duration" time-budget records).
func readJobJournal(path string) (jobJournal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return jobJournal{}, err
	}
	sum := sha256.Sum256(data)
	j := jobJournal{digest: hex.EncodeToString(sum[:])}
	base, edges := int64(-1), int64(0)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if trace.IsHeaderLine(line) {
			base = -1
			continue
		}
		var ev struct {
			AtNS   int64  `json:"at_ns"`
			Shard  int    `json:"shard"`
			Kind   string `json:"kind"`
			Edges  int64  `json:"edges"`
			Reason string `json:"reason"`
			DurNS  int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return j, fmt.Errorf("journal %s: %w", filepath.Base(path), err)
		}
		kind, _ := trace.KindByName(ev.Kind)
		switch {
		case ev.Shard < 0: // the store's campaign-level stream
		case kind == trace.ExecBegin && base < 0:
			base = ev.AtNS
		case kind == trace.CovGain:
			if base < 0 {
				return j, fmt.Errorf("journal %s: coverage before a slice's first exec", filepath.Base(path))
			}
			edges += ev.Edges
			j.curve = append(j.curve, [2]int64{j.boardNS + ev.AtNS - base, edges})
		case kind == trace.TimeBudget && ev.Reason == "duration":
			j.boardNS += ev.DurNS
		case kind == trace.Bug:
			j.sigs = append(j.sigs, ev.Reason)
		}
	}
	return j, sc.Err()
}

// serverSpans times the server API calls the benchmark makes.
type serverSpans struct{ submit, jobs span }

// daemonHarness drives one in-process daemon.
type daemonHarness struct {
	srv   *server.Server
	dir   string
	specs [][]eof.Options
	sp    *serverSpans
	// firsts holds each spec's first finished job, the reference every
	// later job on that spec must repeat.
	firsts map[[2]int]*jobPrint
	curves map[[2]int]jobJournal
}

func newDaemon(dir string, seed int64) (*daemonHarness, error) {
	srv, err := server.New(server.Options{DataDir: dir, Boards: daemonBoards, Quantum: daemonQuantum})
	if err != nil {
		return nil, err
	}
	return &daemonHarness{
		srv: srv, dir: dir, specs: daemonSpecs(seed), sp: &serverSpans{},
		firsts: map[[2]int]*jobPrint{}, curves: map[[2]int]jobJournal{},
	}, nil
}

// loopStats is one closed-loop pass over the daemon.
type loopStats struct {
	jobs     int      // jobs finished
	host     hostSpan // the whole pass
	preempts int
	// The saturated window runs from the start until the last tenant stops
	// submitting. Any one tenant's outstanding jobs fill the pool, so it
	// never idles in the window. Throughput and turnaround are measured
	// over it and not over the final drain, which leaves boards idle for a
	// part of a job that depends on where the jobs' slices end.
	window     hostSpan
	execs      int
	charged    time.Duration
	turnaround []float64 // of the jobs finished within the window
	// usage is each tenant's fair-share ledger growth until the host time
	// was spent, while every tenant still submitted.
	usage []time.Duration
}

type inflight struct {
	key  [2]int          // tenant, spec
	span func() hostSpan // from Submit
}

// loop runs the closed loop: every tenant keeps daemonOutstanding jobs in
// flight, cycling through its specs. Once the host time is spent, each
// tenant stops submitting at the end of a cycle, after at least
// daemonFixedCycles of them, so the finished jobs always hold whole cycles;
// then the loop drains. Refused, failed and non-repeating jobs count
// against r.
func (d *daemonHarness) loop(seconds time.Duration, r *run) loopStats {
	var st loopStats
	usage0 := d.usage()
	execs0, charged0 := d.progress()
	next := make([]int, len(daemonTenants))
	stopped := make([]bool, len(daemonTenants))
	perTenant := make([]int, len(daemonTenants))
	active := map[string]inflight{}
	start := time.Now()
	span := startSpan()
	for {
		if st.usage == nil && time.Since(start) >= seconds {
			st.usage = sub(d.usage(), usage0)
		}
		submitting := false
		for ti := range daemonTenants {
			for !stopped[ti] && perTenant[ti] < daemonOutstanding {
				if st.usage != nil && next[ti]%len(daemonOSes) == 0 && next[ti] >= len(d.specs[ti]) {
					stopped[ti] = true
					break
				}
				key := [2]int{ti, next[ti] % len(d.specs[ti])}
				id, err := d.submit(ti, d.specs[ti][key[1]])
				if !r.op(err) {
					// A refused job is a failed operation; the tenant's
					// later specs would be refused alike.
					stopped[ti] = true
					break
				}
				active[id] = inflight{key: key, span: startSpan()}
				perTenant[ti]++
				next[ti]++
			}
			submitting = submitting || !stopped[ti]
		}
		if !submitting && st.window.wall == 0 {
			st.window = span()
			execs, charged := d.progress()
			st.execs, st.charged = execs-execs0, charged-charged0
		}
		if !submitting && len(active) == 0 {
			break
		}
		time.Sleep(daemonPoll)
		t0 := time.Now()
		jobs := d.srv.Jobs()
		d.sp.jobs.since(t0)
		for _, rec := range jobs {
			fl, ok := active[rec.ID]
			if !ok || !terminal(rec.State) {
				continue
			}
			delete(active, rec.ID)
			perTenant[fl.key[0]]--
			turnaround := fl.span()
			if !r.op(errors.Join(d.finish(rec, fl.key), turnaround.err)) {
				continue
			}
			st.jobs++
			st.preempts += rec.Preempts
			if st.window.wall == 0 {
				st.turnaround = append(st.turnaround, turnaround.on(servedClock).Seconds())
			}
		}
	}
	st.host = span()
	r.op(d.checkLedger())
	return st
}

// progress sums the test cases and the board time charged so far over
// every job; running jobs count the slices they have finished.
func (d *daemonHarness) progress() (int, time.Duration) {
	var execs int
	var charged time.Duration
	for _, rec := range d.srv.Jobs() {
		execs += rec.Execs
		charged += time.Duration(rec.ChargedNS)
	}
	return execs, charged
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

func (d *daemonHarness) submit(ti int, o eof.Options) (string, error) {
	spec, err := json.Marshal(map[string]interface{}{"OS": o.OS, "Board": o.Board, "Seed": o.Seed})
	if err != nil {
		return "", err
	}
	t0 := time.Now()
	rec, err := d.srv.Submit(daemonTenants[ti].name, server.SubmitRequest{
		Minutes: daemonJobMinutes, Priority: daemonTenants[ti].weight, Options: spec,
	})
	d.sp.submit.since(t0)
	if err != nil {
		return "", fmt.Errorf("submit refused: %w", err)
	}
	return rec.ID, nil
}

// finish checks one terminal job: it is done, its board-time charge equals
// the board time it consumed (a solo campaign's TimeBy sums to its
// duration) and covers its budget, and it repeats the first job on the same
// spec exactly, journal included.
func (d *daemonHarness) finish(rec server.Record, key [2]int) error {
	if rec.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", rec.ID, rec.State, rec.Error)
	}
	if rec.ChargedNS != rec.UsedNS || rec.UsedNS < rec.BudgetNS {
		return fmt.Errorf("job %s: charged %v, used %v of a %v budget", rec.ID,
			time.Duration(rec.ChargedNS), time.Duration(rec.UsedNS), time.Duration(rec.BudgetNS))
	}
	jj, err := readJobJournal(filepath.Join(d.dir, "journals", rec.ID+".jsonl"))
	if err != nil {
		return err
	}
	if jj.boardNS != rec.UsedNS {
		return fmt.Errorf("job %s: journal accounts %v of board time, record %v", rec.ID,
			time.Duration(jj.boardNS), time.Duration(rec.UsedNS))
	}
	fp := jobPrint{
		Execs: rec.Execs, Edges: rec.Edges, Bugs: rec.Bugs, Checkpoints: rec.Checkpoints,
		Slices: rec.Slices, UsedNS: rec.UsedNS, ChargedNS: rec.ChargedNS, Journal: jj.digest,
	}
	if first := d.firsts[key]; first == nil {
		d.firsts[key] = &fp
		d.curves[key] = jj
	} else if !reflect.DeepEqual(*first, fp) {
		return fmt.Errorf("job %s repeats %s/%d differently:\n first %+v\n again %+v",
			rec.ID, daemonTenants[key[0]].name, key[1], *first, fp)
	}
	return nil
}

// checkLedger verifies that the tenants' fair-share ledgers sum to the
// pool's charged board time and to the jobs' charges.
func (d *daemonHarness) checkLedger() error {
	var tenants, jobs time.Duration
	for _, u := range d.srv.Usage() {
		tenants += u.Used
	}
	for _, rec := range d.srv.Jobs() {
		jobs += time.Duration(rec.ChargedNS)
	}
	if busy := d.srv.PoolBusy(); tenants != busy || jobs != busy {
		return fmt.Errorf("tenant ledgers sum to %v and jobs to %v, pool charged %v", tenants, jobs, busy)
	}
	return nil
}

func (d *daemonHarness) usage() []time.Duration {
	out := make([]time.Duration, len(daemonTenants))
	for _, u := range d.srv.Usage() {
		for ti, t := range daemonTenants {
			if u.Tenant == t.name {
				out[ti] = u.Used
			}
		}
	}
	return out
}

func sub(a, b []time.Duration) []time.Duration {
	out := make([]time.Duration, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// fairShareErrorPct is the largest relative gap between a tenant's share of
// the charged board time and its weight's share.
func fairShareErrorPct(usage []time.Duration) float64 {
	var total time.Duration
	weights := 0
	for i, u := range usage {
		total += u
		weights += daemonTenants[i].weight
	}
	worst := 0.0
	for i, u := range usage {
		want := float64(daemonTenants[i].weight) / float64(weights)
		got := ratio(float64(u), float64(total))
		if e := 100 * math.Abs(got-want) / want; e > worst {
			worst = e
		}
	}
	return worst
}

// fixedSet returns every distinct spec's fingerprint and journal, in spec
// order: the board-clock metrics' fixed input.
func (d *daemonHarness) fixedSet() ([]jobPrint, []jobJournal) {
	var fps []jobPrint
	var jjs []jobJournal
	for ti := range daemonTenants {
		for k := range d.specs[ti] {
			if fp := d.firsts[[2]int{ti, k}]; fp != nil {
				fps = append(fps, *fp)
				jjs = append(jjs, d.curves[[2]int{ti, k}])
			}
		}
	}
	return fps, jjs
}

// daemonSetup measures the served seconds the daemon takes from
// construction until it could run its first job: server.New over an empty
// data directory plus the bring-up of the first job's campaign.
func daemonSetup(dir string, first eof.Options) (float64, error) {
	var xs []float64
	for i := 0; i < setupProbes; i++ {
		span := startSpan()
		srv, err := server.New(server.Options{DataDir: filepath.Join(dir, fmt.Sprintf("setup-%d", i)), Boards: daemonBoards, Quantum: daemonQuantum})
		if err != nil {
			return 0, err
		}
		_, err = campaignOp(first, 0)
		s := span()
		xs = append(xs, s.on(servedClock).Seconds())
		srv.Stop()
		err = errors.Join(err, s.err)
		if err != nil {
			return 0, err
		}
	}
	return median(xs), nil
}

func runDaemon(p params, r *run) error {
	specs := daemonSpecs(p.seed)
	setup, err := daemonSetup(p.work, specs[0][0])
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	d, err := newDaemon(filepath.Join(p.work, "eofd"), p.seed)
	if err != nil {
		return err
	}
	defer d.srv.Stop()
	if p.traced {
		return tracedDaemon(d, p, r)
	}
	r.op(resetPeakRSS())
	st := d.loop(p.seconds, r)
	mb, err := peakRSSMB()
	r.op(err)
	r.set("peak_rss_mb", "MB", mb)
	r.op(st.window.err)
	window := st.window.on(servedClock).Seconds()
	r.set("execs_per_host_s", "1/s", float64(st.execs)/window)
	r.set("board_s_per_host_s", "s/s", st.charged.Seconds()/window)
	r.set("jobs_per_host_s", "1/s", float64(len(st.turnaround))/window)
	noteThroughput(r, st.window, st.execs, st.charged, len(st.turnaround))
	r.set("setup_s", "s", setup)
	reportDaemonBoardClock(r, d)
	reportJobs(r, st.turnaround)
	return nil
}

// reportDaemonBoardClock sets the board-clock metrics over the first job
// on every distinct spec: execs per charged board-hour, mean edges,
// distinct bug signatures, and the board seconds at which the jobs' mean
// coverage curve reaches daemonEdgesN.
func reportDaemonBoardClock(r *run, d *daemonHarness) {
	fps, jjs := d.fixedSet()
	var execs, boardH float64
	var edges []float64
	var curves [][][2]int64
	sigs := map[string]bool{}
	for i, fp := range fps {
		execs += float64(fp.Execs)
		boardH += time.Duration(fp.ChargedNS).Hours()
		edges = append(edges, float64(fp.Edges))
		curves = append(curves, jjs[i].curve)
		for _, s := range jjs[i].sigs {
			sigs[s] = true
		}
	}
	r.set("execs_per_virtual_h", "1/h", ratio(execs, boardH))
	r.set("edges", "count", mean(edges))
	at, err := meanTimeToEdges(curves, daemonEdgesN)
	r.op(err)
	r.set("virtual_s_to_edges", "s", at)
	r.set("bugs", "count", float64(len(sigs)))
}

// tracedDaemon measures the daemon's per-layer metrics. An untraced pass
// over the distinct specs gives the reference jobs; a traced pass then runs the
// closed loop under a CPU profile with the server API calls timed, and
// each of its jobs must repeat the reference exactly. The daemon builds its
// campaigns itself, so the backend and transport numbers come from
// replaying each spec's first slice through the wrapped stack.
func tracedDaemon(d *daemonHarness, p params, r *run) error {
	ref := d.loop(0, r)
	d.sp = &serverSpans{}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	st := d.loop(p.seconds, r)
	pprof.StopCPUProfile()
	if err := reportShares(r, prof.Bytes()); err != nil {
		return err
	}
	perJob := func(s loopStats) float64 { return ratio(s.host.on(servedClock).Seconds(), float64(s.jobs)) }
	r.set("trace_overhead_pct", "%", 100*(ratio(perJob(st), perJob(ref))-1))
	r.set("server.submit.host_us", "us", ratio(d.sp.submit.us(), float64(d.sp.submit.calls.Load())))
	r.set("server.jobs.host_us", "us", ratio(d.sp.jobs.us(), float64(d.sp.jobs.calls.Load())))
	r.set("sched.preempts", "count", float64(st.preempts))
	r.set("sched.fair_share_error_pct", "%", fairShareErrorPct(st.usage))
	fps, _ := d.fixedSet()
	var ck, slices float64
	for _, fp := range fps {
		ck += float64(fp.Checkpoints)
		slices += float64(fp.Slices)
	}
	r.set("corpus.checkpoints_per_slice", "1/slice", ratio(ck, slices))

	var sp layerSpans
	clk := newExecClock()
	var reports []*core.Report
	var runTime time.Duration
	for _, cycle := range d.specs {
		for _, o := range cycle {
			rep, _, runFor, err := tracedOp(o, daemonQuantum, &sp, clk)
			if !r.op(err) {
				continue
			}
			runTime += runFor
			reports = append(reports, rep)
		}
	}
	reportSpans(r, &sp, float64(len(reports)), runTime)
	p50, p99 := clk.quantiles()
	r.set("core.exec_host_us_p50", "us", p50)
	r.set("core.exec_host_us_p99", "us", p99)
	reportBoardLayers(r, reports)
	return nil
}
