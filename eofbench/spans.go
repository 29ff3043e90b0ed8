package main

import (
	"hash"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eof-fuzz/eof/internal/backend"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/trace"
)

// span accumulates the calls into one layer entry point and the host time
// they took. Safe for concurrent use: fleet shards call in in parallel.
type span struct {
	calls atomic.Int64
	ns    atomic.Int64
}

// since closes a call opened at start: defer s.since(time.Now()).
func (s *span) since(start time.Time) {
	s.calls.Add(1)
	s.ns.Add(int64(time.Since(start)))
}

func (s *span) us() float64 { return float64(s.ns.Load()) / 1e3 }
func (s *span) ms() float64 { return float64(s.ns.Load()) / 1e6 }

// layerSpans are the boundaries the traced run times from outside the
// program: backend bring-up, the transport commands Backend.Connect
// returns, and the trace sink.
type layerSpans struct {
	provision, boot span
	// Transport commands. cont covers Continue and WriteMemContinue; other
	// covers the remaining timed commands.
	cont, flashWrite, flashErase, drainCov, restoreSnap, other span
	sink                                                       span
}

// transportNS is the host time spent below the engine in the backend and
// its transport.
func (l *layerSpans) transportNS() int64 {
	var n int64
	for _, s := range []*span{&l.provision, &l.boot, &l.cont, &l.flashWrite, &l.flashErase, &l.drainCov, &l.restoreSnap, &l.other} {
		n += s.ns.Load()
	}
	return n
}

// timedFactory wraps a backend factory so every backend it builds reports
// into sp.
func timedFactory(f backend.Factory, sp *layerSpans) backend.Factory {
	return func(env backend.Env) (backend.Backend, error) {
		b, err := f(env)
		if err != nil {
			return nil, err
		}
		return &timedBackend{Backend: b, sp: sp}, nil
	}
}

type timedBackend struct {
	backend.Backend
	sp *layerSpans
}

func (b *timedBackend) Provision() error {
	defer b.sp.provision.since(time.Now())
	return b.Backend.Provision()
}

func (b *timedBackend) Boot() error {
	defer b.sp.boot.since(time.Now())
	return b.Backend.Boot()
}

func (b *timedBackend) Connect() link.Link {
	return &timedLink{Link: b.Backend.Connect(), sp: b.sp}
}

// timedLink times the transport commands that carry the per-exec and
// restore traffic. It embeds the interface and overrides only those, so
// the rest of the command surface passes through untouched.
type timedLink struct {
	link.Link
	sp *layerSpans
}

func (l *timedLink) Continue(budget int64) (cpu.Stop, error) {
	defer l.sp.cont.since(time.Now())
	return l.Link.Continue(budget)
}

func (l *timedLink) WriteMemContinue(addr uint64, data []byte, budget int64) (cpu.Stop, error) {
	defer l.sp.cont.since(time.Now())
	return l.Link.WriteMemContinue(addr, data, budget)
}

func (l *timedLink) FlashWrite(off int, data []byte) error {
	defer l.sp.flashWrite.since(time.Now())
	return l.Link.FlashWrite(off, data)
}

func (l *timedLink) FlashErase(off, n int) error {
	defer l.sp.flashErase.since(time.Now())
	return l.Link.FlashErase(off, n)
}

func (l *timedLink) DrainCov(addr uint64, maxEntries int) ([]uint32, uint32, error) {
	defer l.sp.drainCov.since(time.Now())
	return l.Link.DrainCov(addr, maxEntries)
}

func (l *timedLink) RestoreSnapshot() (board.RestoreStats, error) {
	defer l.sp.restoreSnap.since(time.Now())
	return l.Link.RestoreSnapshot()
}

func (l *timedLink) ReadMem(addr uint64, n int) ([]byte, error) {
	defer l.sp.other.since(time.Now())
	return l.Link.ReadMem(addr, n)
}

func (l *timedLink) WriteMem(addr uint64, data []byte) error {
	defer l.sp.other.since(time.Now())
	return l.Link.WriteMem(addr, data)
}

func (l *timedLink) Reset() error {
	defer l.sp.other.since(time.Now())
	return l.Link.Reset()
}

func (l *timedLink) DrainUART() ([]string, error) {
	defer l.sp.other.since(time.Now())
	return l.Link.DrainUART()
}

// journalSink is the traced run's journal: the JSONL encoder writing into a
// digest, with its host time recorded as the sink span.
type journalSink struct {
	inner trace.Sink
	sp    *span
}

func newJournalSink(h hash.Hash, sp *span) *journalSink {
	return &journalSink{inner: trace.NewJSONL(h), sp: sp}
}

func (j *journalSink) Emit(ev trace.Event) {
	defer j.sp.since(time.Now())
	j.inner.Emit(ev)
}

// execClock is a live status sink timing each test case on the host clock,
// from its exec-begin to its exec-end event, per shard.
type execClock struct {
	mu    sync.Mutex
	begun map[int]time.Time
	us    []float64
}

func newExecClock() *execClock { return &execClock{begun: map[int]time.Time{}} }

func (c *execClock) Emit(ev trace.Event) {
	if ev.Kind != trace.ExecBegin && ev.Kind != trace.ExecEnd {
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.Kind == trace.ExecBegin {
		c.begun[ev.Shard] = now
		return
	}
	if t, ok := c.begun[ev.Shard]; ok {
		c.us = append(c.us, float64(now.Sub(t))/1e3)
		delete(c.begun, ev.Shard)
	}
}

// quantiles returns the p50 and p99 exec host times in microseconds.
func (c *execClock) quantiles() (p50, p99 float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return percentile(c.us, 50), percentile(c.us, 99)
}
