// Package server is the EOF control plane: a long-running daemon that
// multiplexes many fuzzing campaigns from many tenants over one shared
// board pool. Campaigns are submitted over an HTTP/JSON API as jobs
// (spec = the public eof.Options), scheduled by internal/sched's
// fair-share quota scheduler, executed as a sequence of bounded campaign
// slices that each end at an epoch barrier with a durable checkpoint
// (the PR 9 persistence path), and preempted or resumed between slices
// via the store's -resume semantics. The daemon persists its job table
// under the data directory next to the corpus store, so a restart — or a
// kill -9 — re-adopts every queued and checkpointed campaign and loses at
// most the epoch in flight.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	eof "github.com/eof-fuzz/eof"
	"github.com/eof-fuzz/eof/internal/boards"
	"github.com/eof-fuzz/eof/internal/corpus"
	"github.com/eof-fuzz/eof/internal/fleet"
	"github.com/eof-fuzz/eof/internal/metrics"
	"github.com/eof-fuzz/eof/internal/sched"
)

// Options configures a daemon instance.
type Options struct {
	// DataDir roots everything durable: the job table (jobs/), the shared
	// corpus store (corpus/, one namespace per job) and the per-job event
	// journals (journals/).
	DataDir string
	// BoardType names the pool's board model (inventory display only;
	// jobs pick their own target board). Defaults to stm32h745.
	BoardType string
	// Boards is the pool size (default 2).
	Boards int
	// Quantum is the board-time length of one scheduling slice: how much
	// board time a job consumes before the scheduler reconsiders the
	// grant at the slice's final epoch barrier. Default 20 virtual
	// minutes.
	Quantum time.Duration
	// Logf receives daemon progress lines (nil = silent).
	Logf func(format string, args ...interface{})
}

// Server is one daemon instance.
type Server struct {
	opts Options
	sch  *sched.Scheduler
	pool *fleet.BoardPool

	reg     *metrics.Registry
	mTenant *metrics.CounterVec // eofd_tenant_board_seconds_total{tenant}
	mPool   *metrics.Counter    // eofd_pool_board_seconds_total
	mSlices *metrics.Counter
	mJobs   *metrics.GaugeVec // eofd_jobs{state}

	mu        sync.Mutex
	recs      map[string]*Record
	hubs      map[string]*hub
	running   map[string]*eof.Campaign // in-flight slice per running job
	nextID    int
	stopping  bool
	wg        sync.WaitGroup
	scheduleM sync.Mutex // serializes grant→lease→spawn batches
}

// Record is one job-table row — the persisted form of a job. Spec is the
// tenant's submitted options JSON, kept verbatim: every slice re-decodes
// it, so the daemon never persists unserializable live state.
type Record struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Seq    int    `json:"seq"`
	// Priority is the tenant fair-share weight; Boards the hardware pool
	// footprint derived from the spec.
	Priority int `json:"priority"`
	Boards   int `json:"boards"`
	// BudgetNS is the total board-time ask; UsedNS the budget consumed
	// (slice duration × shards); ChargedNS the fair-share charge (the
	// report's TimeBy board-time total, spares and tiers included).
	BudgetNS  int64  `json:"budget_ns"`
	UsedNS    int64  `json:"used_ns"`
	ChargedNS int64  `json:"charged_ns"`
	State     string `json:"state"`
	Error     string `json:"error,omitempty"`
	// Slices counts scheduling grants; Preempts barrier requeues; Resumed
	// marks a job adopted from the store after a daemon restart.
	Slices   int  `json:"slices"`
	Preempts int  `json:"preempts"`
	Resumed  bool `json:"resumed"`
	// Cumulative campaign results, summed across slices.
	Execs       int             `json:"execs"`
	Edges       int             `json:"edges"`
	Bugs        int             `json:"bugs"`
	Checkpoints int             `json:"checkpoints"`
	Spec        json.RawMessage `json:"spec"`
}

func (r *Record) remaining() time.Duration {
	if r.UsedNS >= r.BudgetNS {
		return 0
	}
	return time.Duration(r.BudgetNS - r.UsedNS)
}

// New opens (or re-adopts) a daemon over a data directory: the persisted
// job table is loaded, every non-terminal job re-enters the queue —
// running jobs become queued-with-resume, continuing from their last
// durable checkpoint — and the tenant usage ledger is rebuilt from the
// table so fair shares survive the restart.
func New(opts Options) (*Server, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("server: DataDir required")
	}
	if opts.Boards < 1 {
		opts.Boards = 2
	}
	if opts.BoardType == "" {
		opts.BoardType = boards.NameSTM32H745
	}
	if opts.Quantum <= 0 {
		opts.Quantum = 20 * time.Minute
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...interface{}) {}
	}
	for _, d := range []string{jobsDir(opts.DataDir), filepath.Join(opts.DataDir, "journals")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	s := &Server{
		opts:    opts,
		sch:     sched.New(opts.Boards),
		pool:    fleet.NewBoardPool(opts.BoardType, opts.Boards),
		reg:     metrics.NewRegistry(),
		recs:    make(map[string]*Record),
		hubs:    make(map[string]*hub),
		running: make(map[string]*eof.Campaign),
	}
	s.mTenant = s.reg.NewCounterVec("eofd_tenant_board_seconds_total",
		"Board-seconds charged per tenant (the fair-share ledger).", "tenant")
	s.mPool = s.reg.NewCounter("eofd_pool_board_seconds_total",
		"Board-seconds charged across the whole pool.")
	s.mSlices = s.reg.NewCounter("eofd_slices_total",
		"Campaign slices executed.")
	s.mJobs = s.reg.NewGaugeVec("eofd_jobs",
		"Jobs in the table by state.", "state")
	if err := s.adopt(); err != nil {
		return nil, err
	}
	s.publishJobGauges()
	s.Kick()
	return s, nil
}

func jobsDir(dataDir string) string { return filepath.Join(dataDir, "jobs") }

// adopt loads the persisted job table and rebuilds the scheduler: charges
// first (terminal jobs still owe their tenants' history), then
// re-submission of every unfinished job with its remaining budget.
func (s *Server) adopt() error {
	ents, err := os.ReadDir(jobsDir(s.opts.DataDir))
	if err != nil {
		return fmt.Errorf("server: job table: %w", err)
	}
	var recs []*Record
	for _, e := range ents {
		// The suffix test also skips the ".tmp-*" files an interrupted
		// persist leaves behind.
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(jobsDir(s.opts.DataDir), e.Name()))
		if err != nil {
			return fmt.Errorf("server: job table: %w", err)
		}
		var r Record
		if err := json.Unmarshal(raw, &r); err != nil {
			// A torn row (the daemon died mid-rename on a filesystem
			// without atomic rename) loses that job, not the table.
			s.opts.Logf("eofd: dropping unreadable job row %s: %v", e.Name(), err)
			continue
		}
		recs = append(recs, &r)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].Seq < recs[b].Seq })
	for _, r := range recs {
		s.recs[r.ID] = r
		if n := idOrdinal(r.ID); n >= s.nextID {
			s.nextID = n + 1
		}
		if r.ChargedNS > 0 {
			s.sch.Charge(r.Tenant, time.Duration(r.ChargedNS))
			s.mTenant.With(r.Tenant).Add(time.Duration(r.ChargedNS).Seconds())
			s.mPool.Add(time.Duration(r.ChargedNS).Seconds())
		}
		switch sched.State(r.State) {
		case sched.Queued, sched.Running:
			if sched.State(r.State) == sched.Running {
				// The daemon died (or stopped) mid-grant: the store holds
				// the job's last durable checkpoint, so it re-enters the
				// queue and resumes from there. At most the in-flight
				// epoch is lost.
				r.State = string(sched.Queued)
				r.Resumed = true
				s.opts.Logf("eofd: re-adopting %s (tenant %s): resuming from last checkpoint", r.ID, r.Tenant)
			}
			if r.remaining() <= 0 {
				r.State = string(sched.Done)
				_ = s.persist(r)
				continue
			}
			if _, err := s.sch.Submit(sched.Spec{
				ID: r.ID, Tenant: r.Tenant, Weight: r.Priority,
				Boards: r.Boards, Budget: r.remaining(),
			}); err != nil {
				return fmt.Errorf("server: re-adopt %s: %w", r.ID, err)
			}
			_ = s.persist(r)
		}
	}
	return nil
}

// idOrdinal extracts the numeric suffix of a job ID ("c-000007" → 7).
func idOrdinal(id string) int {
	n := 0
	if _, err := fmt.Sscanf(id, "c-%d", &n); err != nil {
		return -1
	}
	return n
}

// persist writes one job row atomically and durably through
// corpus.WriteFileSync (temp, fsync, rename, directory fsync), so the row
// survives power loss as well as kill -9. Callers hold s.mu or own the
// record exclusively.
func (s *Server) persist(r *Record) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("server: encode job %s: %w", r.ID, err)
	}
	if err := corpus.WriteFileSync(filepath.Join(jobsDir(s.opts.DataDir), r.ID+".json"), raw); err != nil {
		return fmt.Errorf("server: persist job %s: %w", r.ID, err)
	}
	return nil
}

func (s *Server) publishJobGauges() {
	counts := map[string]int{}
	s.mu.Lock()
	for _, r := range s.recs {
		counts[r.State]++
	}
	s.mu.Unlock()
	for _, st := range []sched.State{sched.Queued, sched.Running, sched.Done, sched.Failed, sched.Canceled} {
		s.mJobs.With(string(st)).Set(float64(counts[string(st)]))
	}
}

// Registry exposes the daemon's metric registry (the /metrics handler).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Submit validates a request and enqueues the job. The spec is the
// public eof.Options in JSON form; the daemon owns persistence and
// telemetry, so CorpusDir/CorpusNamespace/Resume/MetricsAddr in the spec
// are rejected rather than silently rewritten.
func (s *Server) Submit(tenant string, req SubmitRequest) (*Record, error) {
	if tenant == "" {
		return nil, badRequestf("missing tenant")
	}
	if !validTenant(tenant) {
		return nil, badRequestf("invalid tenant %q", tenant)
	}
	_, footprint, err := decodeSpec(req.Options)
	if err != nil {
		return nil, err
	}
	if req.Minutes <= 0 {
		return nil, badRequestf("minutes must be positive")
	}
	if req.Priority < 0 {
		return nil, badRequestf("priority must be >= 1")
	}
	if req.Priority == 0 {
		req.Priority = 1
	}
	if footprint > s.opts.Boards {
		return nil, badRequestf("spec needs %d boards (shards+spares+triage), pool has %d", footprint, s.opts.Boards)
	}
	budget := time.Duration(req.Minutes) * time.Minute

	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return nil, fmt.Errorf("server: shutting down")
	}
	id := fmt.Sprintf("c-%06d", s.nextID)
	s.nextID++
	r := &Record{
		ID: id, Tenant: tenant, Priority: req.Priority, Boards: footprint,
		BudgetNS: int64(budget), State: string(sched.Queued),
		Spec: append(json.RawMessage(nil), req.Options...),
	}
	j, err := s.sch.Submit(sched.Spec{
		ID: id, Tenant: tenant, Weight: req.Priority, Boards: footprint, Budget: budget,
	})
	if err != nil {
		s.mu.Unlock()
		return nil, badRequestf("%v", err)
	}
	r.Seq = j.Seq
	s.recs[id] = r
	err = s.persist(r)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.opts.Logf("eofd: %s submitted by %s: %d boards, %v budget, weight %d", id, tenant, footprint, budget, req.Priority)
	s.publishJobGauges()
	s.Kick()
	return s.snapshot(id), nil
}

func validTenant(t string) bool {
	if len(t) > 64 {
		return false
	}
	for _, r := range t {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-' || r == '@':
		default:
			return false
		}
	}
	return true
}

// badRequest marks validation failures the API maps to 400.
type badRequest struct{ msg string }

func (e badRequest) Error() string { return e.msg }

func badRequestf(format string, args ...interface{}) error {
	return badRequest{fmt.Sprintf(format, args...)}
}

// IsBadRequest reports whether an error is a client-side spec problem.
func IsBadRequest(err error) bool {
	_, ok := err.(badRequest)
	return ok
}

// decodeSpec strictly decodes a submitted eof.Options JSON document and
// derives the job's hardware-pool footprint.
func decodeSpec(raw json.RawMessage) (eof.Options, int, error) {
	var opts eof.Options
	if len(raw) == 0 {
		return opts, 0, badRequestf("missing options")
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&opts); err != nil {
		return opts, 0, badRequestf("bad options: %v", err)
	}
	if opts.OS == "" {
		return opts, 0, badRequestf("options.OS required (have %v)", eof.Targets())
	}
	if !contains(eof.Targets(), opts.OS) {
		return opts, 0, badRequestf("unknown OS %q (have %v)", opts.OS, eof.Targets())
	}
	if opts.Board != "" && !contains(eof.Boards(), opts.Board) {
		return opts, 0, badRequestf("unknown board %q (have %v)", opts.Board, eof.Boards())
	}
	// The daemon owns the store layout and telemetry wiring.
	if opts.CorpusDir != "" || opts.CorpusNamespace != "" || opts.Resume {
		return opts, 0, badRequestf("options.CorpusDir/CorpusNamespace/Resume are daemon-managed; submit a plain spec")
	}
	if opts.MetricsAddr != "" {
		return opts, 0, badRequestf("options.MetricsAddr is daemon-managed")
	}
	hardware, _ := eof.Footprint(opts)
	return opts, hardware, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Kick starts every queued job the scheduler grants boards to. Called
// after submits, barrier transitions and adoption; safe from any
// goroutine.
func (s *Server) Kick() {
	s.scheduleM.Lock()
	defer s.scheduleM.Unlock()
	s.mu.Lock()
	stopping := s.stopping
	s.mu.Unlock()
	if stopping {
		return
	}
	for _, j := range s.sch.Schedule() {
		if _, err := s.pool.Lease(j.ID, j.Tenant, j.Boards); err != nil {
			// Scheduler and pool accounting disagree — a daemon bug.
			// Surface it on the job rather than crashing the daemon.
			_ = s.sch.Finish(j.ID, fmt.Sprintf("board lease: %v", err))
			s.withRecord(j.ID, func(r *Record) {
				r.State = string(sched.Failed)
				r.Error = fmt.Sprintf("board lease: %v", err)
			})
			continue
		}
		s.withRecord(j.ID, func(r *Record) {
			r.State = string(sched.Running)
			r.Slices++
		})
		s.wg.Add(1)
		go s.runJob(j.ID)
	}
	s.publishJobGauges()
}

// withRecord mutates one record under the lock and persists it.
func (s *Server) withRecord(id string, fn func(*Record)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recs[id]
	if r == nil {
		return
	}
	fn(r)
	if err := s.persist(r); err != nil {
		s.opts.Logf("eofd: %v", err)
	}
}

// hubOf lazily opens a job's event hub.
func (s *Server) hubOf(id string) (*hub, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.hubs[id]; h != nil {
		return h, nil
	}
	h, err := openHub(filepath.Join(s.opts.DataDir, "journals", id+".jsonl"))
	if err != nil {
		return nil, err
	}
	s.hubs[id] = h
	return h, nil
}

// runJob owns one scheduling grant: it runs campaign slices of at most
// one quantum of board time, each ending at an epoch barrier with a
// durable checkpoint, until the budget is exhausted, the scheduler
// reclaims the boards, a cancel lands, or the daemon drains. It is the
// only goroutine that transitions its job while the grant is held.
func (s *Server) runJob(id string) {
	defer s.wg.Done()
	var leaseCharged time.Duration
	release := func(used time.Duration) {
		s.pool.Release(id, used)
	}
	for {
		s.mu.Lock()
		r := s.recs[id]
		if r == nil {
			s.mu.Unlock()
			release(leaseCharged)
			return
		}
		rec := *r // snapshot
		s.mu.Unlock()

		remaining := rec.remaining()
		if remaining <= 0 {
			s.finishJob(id, "", leaseCharged)
			return
		}
		slice := s.opts.Quantum
		if slice > remaining {
			slice = remaining
		}
		opts, _, err := decodeSpec(rec.Spec)
		if err != nil {
			s.finishJob(id, fmt.Sprintf("stored spec no longer decodes: %v", err), leaseCharged)
			return
		}
		h, err := s.hubOf(id)
		if err != nil {
			s.finishJob(id, err.Error(), leaseCharged)
			return
		}
		opts.CorpusDir = filepath.Join(s.opts.DataDir, "corpus")
		opts.CorpusNamespace = id
		opts.Resume = eof.HasCheckpoint(opts)
		opts.TraceJSONL = h
		opts.StatusEvery = 0
		opts.MetricsAddr = ""

		c, err := eof.NewCampaign(opts)
		if err != nil {
			s.finishJob(id, fmt.Sprintf("campaign: %v", err), leaseCharged)
			return
		}
		s.mu.Lock()
		if s.stopping {
			s.mu.Unlock()
			c.Close()
			release(leaseCharged)
			return
		}
		s.running[id] = c
		s.mu.Unlock()

		rep, runErr := c.Run(slice)
		c.Close()
		s.mu.Lock()
		delete(s.running, id)
		stopping := s.stopping
		s.mu.Unlock()

		if runErr != nil {
			s.finishJob(id, fmt.Sprintf("run: %v", runErr), leaseCharged)
			return
		}
		shards := rep.Shards
		if shards < 1 {
			shards = 1
		}
		consumed := rep.Duration * time.Duration(shards)
		charged := rep.TimeBy.Sum()
		leaseCharged += charged
		s.withRecord(id, func(r *Record) {
			r.UsedNS += int64(consumed)
			r.ChargedNS += int64(charged)
			r.Execs += rep.Execs
			if rep.Edges > r.Edges {
				r.Edges = rep.Edges
			}
			r.Bugs += len(rep.Bugs)
			if rep.Persist != nil {
				r.Checkpoints += rep.Persist.Checkpoints
			}
		})
		s.mTenant.With(rec.Tenant).Add(charged.Seconds())
		s.mPool.Add(charged.Seconds())
		s.mSlices.Inc()

		if stopping {
			// Drain: the slice ended at a barrier with a durable
			// checkpoint; the row stays "running" on disk so the next
			// daemon adopts and resumes it.
			release(leaseCharged)
			return
		}
		s.mu.Lock()
		r2 := s.recs[id]
		done := r2 != nil && r2.remaining() <= 0
		s.mu.Unlock()
		if done {
			// The budget ran out before this barrier's Yield, so the last
			// slice's charge must reach the fair-share ledger directly.
			s.sch.Charge(rec.Tenant, charged)
			s.finishJob(id, "", leaseCharged)
			return
		}
		d, yerr := s.sch.Yield(id, charged)
		if yerr != nil {
			s.finishJob(id, fmt.Sprintf("scheduler: %v", yerr), leaseCharged)
			return
		}
		switch d {
		case sched.Continue:
			s.withRecord(id, func(r *Record) { r.Slices++ })
			continue
		case sched.Requeue:
			release(leaseCharged)
			s.withRecord(id, func(r *Record) {
				r.State = string(sched.Queued)
				r.Preempts++
			})
			s.opts.Logf("eofd: %s preempted at barrier, requeued", id)
			s.publishJobGauges()
			s.Kick()
			return
		case sched.Stop:
			release(leaseCharged)
			s.withRecord(id, func(r *Record) { r.State = string(sched.Canceled) })
			if h, err := s.hubOf(id); err == nil {
				h.End()
			}
			s.opts.Logf("eofd: %s canceled at barrier", id)
			s.publishJobGauges()
			s.Kick()
			return
		}
	}
}

// finishJob retires a job from inside its runJob goroutine.
func (s *Server) finishJob(id, errMsg string, leaseCharged time.Duration) {
	s.pool.Release(id, leaseCharged)
	if err := s.sch.Finish(id, errMsg); err != nil {
		s.opts.Logf("eofd: %v", err)
	}
	s.withRecord(id, func(r *Record) {
		if errMsg != "" {
			r.State = string(sched.Failed)
			r.Error = errMsg
		} else {
			r.State = string(sched.Done)
		}
	})
	if h, err := s.hubOf(id); err == nil {
		h.End()
	}
	if errMsg != "" {
		s.opts.Logf("eofd: %s failed: %s", id, errMsg)
	} else {
		s.opts.Logf("eofd: %s done", id)
	}
	s.publishJobGauges()
	s.Kick()
}

// Preempt asks a running job to give up its boards at the next epoch
// barrier (no-op for queued/terminal jobs).
func (s *Server) Preempt(id string) error {
	s.mu.Lock()
	known := s.recs[id] != nil
	c := s.running[id]
	s.mu.Unlock()
	if !known {
		return fmt.Errorf("server: unknown job %q", id)
	}
	if err := s.sch.Preempt(id); err != nil {
		return err
	}
	// Interrupt the in-flight slice so the preemption lands at the next
	// barrier instead of the end of the quantum.
	if c != nil {
		c.RequestStop()
	}
	return nil
}

// Cancel terminates a job: queued jobs immediately, running jobs at
// their next barrier (with a final durable checkpoint). Idempotent.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	known := s.recs[id] != nil
	c := s.running[id]
	s.mu.Unlock()
	if !known {
		return fmt.Errorf("server: unknown job %q", id)
	}
	wasRunning, err := s.sch.Cancel(id)
	if err != nil {
		return err
	}
	if wasRunning {
		if c != nil {
			c.RequestStop()
		}
		return nil
	}
	// Queued (or already terminal): reflect the scheduler's state.
	if j, ok := s.sch.Get(id); ok && j.State == sched.Canceled {
		s.withRecord(id, func(r *Record) {
			if r.State == string(sched.Queued) {
				r.State = string(sched.Canceled)
			}
		})
		if h, err := s.hubOf(id); err == nil {
			h.End()
		}
		s.publishJobGauges()
		s.Kick()
	}
	return nil
}

// snapshot returns a copy of one record.
func (s *Server) snapshot(id string) *Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recs[id]
	if r == nil {
		return nil
	}
	cp := *r
	return &cp
}

// Jobs lists record copies in submit order.
func (s *Server) Jobs() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.recs))
	for _, r := range s.recs {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Usage exposes the scheduler's per-tenant fair-share ledger.
func (s *Server) Usage() []sched.TenantUsage { return s.sch.Usage() }

// Pool exposes the board inventory.
func (s *Server) Pool() []fleet.PoolBoard { return s.pool.Snapshot() }

// PoolBusy is the lifetime leased board time.
func (s *Server) PoolBusy() time.Duration { return s.pool.Busy() }

// Stop drains the daemon: every in-flight slice is asked to stop at its
// next epoch barrier (committing a final durable checkpoint), job rows
// stay as they are on disk — running rows included, which the next New
// re-adopts — and Stop returns when all slice goroutines have exited.
func (s *Server) Stop() {
	s.mu.Lock()
	s.stopping = true
	for _, c := range s.running {
		c.RequestStop()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	hubs := s.hubs
	s.hubs = make(map[string]*hub)
	s.mu.Unlock()
	for _, h := range hubs {
		h.Close()
	}
}
