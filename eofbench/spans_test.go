package main

import (
	"sync"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/trace"
)

// Fleet shards call the span wrappers and the live exec clock from their
// own goroutines; this drives both from several at once (run with -race).
func TestSpansAndExecClockConcurrent(t *testing.T) {
	var sp layerSpans
	clk := newExecClock()
	const shards, execs = 4, 100
	var wg sync.WaitGroup
	for shard := 0; shard < shards; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < execs; i++ {
				clk.Emit(trace.Event{Kind: trace.ExecBegin, Shard: shard})
				sp.cont.since(time.Now())
				clk.Emit(trace.Event{Kind: trace.ExecEnd, Shard: shard})
			}
		}(shard)
	}
	wg.Wait()
	if got := sp.cont.calls.Load(); got != shards*execs {
		t.Fatalf("span counted %d calls, want %d", got, shards*execs)
	}
	if len(clk.us) != shards*execs {
		t.Fatalf("exec clock timed %d execs, want %d", len(clk.us), shards*execs)
	}
	if p50, p99 := clk.quantiles(); p50 < 0 || p99 < p50 {
		t.Fatalf("exec quantiles p50=%v p99=%v", p50, p99)
	}
}
