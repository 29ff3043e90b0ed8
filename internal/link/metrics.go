package link

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eof-fuzz/eof/internal/vtime"
)

// LatencyBuckets are the upper bounds of the per-command latency histogram;
// a final implicit overflow bucket catches everything slower. The bounds
// bracket the regime of real adapters (tens of milliseconds per round trip).
var LatencyBuckets = []time.Duration{
	1 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
}

// CmdStat is one command's accumulated metrics.
type CmdStat struct {
	Cmd   string
	Count int64
	// Total is the summed virtual latency; Total/Count is the mean round
	// trip including payload transfer and injected penalties.
	Total time.Duration
	// Buckets histograms latencies against LatencyBuckets (last entry is
	// the overflow bucket).
	Buckets []int64
}

// Mean returns the average round-trip latency.
func (c CmdStat) Mean() time.Duration {
	if c.Count == 0 {
		return 0
	}
	return c.Total / time.Duration(c.Count)
}

// Metrics accumulates debug-link round-trip counts and per-command latency
// histograms. It replaces the transport's old ad-hoc ops counter: the total
// is an atomic so a probe shared across fleet goroutines counts correctly,
// and the per-command map is mutex-guarded. One Metrics instance survives
// session reconnects, so campaign accounting includes every retry.
type Metrics struct {
	ops   atomic.Int64
	clock *vtime.Clock

	mu     sync.Mutex
	perCmd map[string]*cmdAcc
}

type cmdAcc struct {
	count   int64
	total   time.Duration
	buckets []int64 // len(LatencyBuckets)+1, last is overflow
}

// NewMetrics builds a metrics accumulator. clock (optional) supplies the
// virtual timebase for latency measurement; with a nil clock only counts
// accumulate.
func NewMetrics(clock *vtime.Clock) *Metrics {
	return &Metrics{clock: clock, perCmd: make(map[string]*cmdAcc)}
}

// Wrap returns a Link that records every command into m before forwarding
// to inner.
func (m *Metrics) Wrap(inner Link) Link { return Wrap(inner, m.around) }

// Ops returns the total number of link round trips recorded so far,
// including retried and faulted attempts (each costs real adapter time).
func (m *Metrics) Ops() int64 { return m.ops.Load() }

// Snapshot returns the per-command stats sorted by command name.
func (m *Metrics) Snapshot() []CmdStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]CmdStat, 0, len(m.perCmd))
	for cmd, acc := range m.perCmd {
		st := CmdStat{Cmd: cmd, Count: acc.count, Total: acc.total, Buckets: make([]int64, len(acc.buckets))}
		copy(st.Buckets, acc.buckets)
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cmd < out[j].Cmd })
	return out
}

// around records one command: its round trip and the virtual time it took.
func (m *Metrics) around(c Cmd, call func() error) error {
	start := m.now()
	err := call()
	m.observe(c.String(), m.now()-start)
	return err
}

func (m *Metrics) now() time.Duration {
	if m.clock == nil {
		return 0
	}
	return m.clock.Now()
}

func (m *Metrics) observe(cmd string, lat time.Duration) {
	m.ops.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	acc := m.perCmd[cmd]
	if acc == nil {
		acc = &cmdAcc{buckets: make([]int64, len(LatencyBuckets)+1)}
		m.perCmd[cmd] = acc
	}
	acc.count++
	acc.total += lat
	i := 0
	for i < len(LatencyBuckets) && lat > LatencyBuckets[i] {
		i++
	}
	acc.buckets[i]++
}
