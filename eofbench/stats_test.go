package main

import (
	"testing"
	"time"
)

func TestServedScalesWallByServedShare(t *testing.T) {
	for _, c := range []struct {
		busy, steal int64
		want        time.Duration
	}{
		{busy: 300, steal: 100, want: 750 * time.Millisecond},
		{busy: 200, steal: 0, want: time.Second},
		{busy: 0, steal: 0, want: time.Second},
	} {
		if got := served(time.Second, c.busy, c.steal); got != c.want {
			t.Errorf("served(1s, busy %d, steal %d) = %v, want %v", c.busy, c.steal, got, c.want)
		}
	}
}

func TestVMTicksReadsProcStat(t *testing.T) {
	busy, steal, err := vmTicks()
	if err != nil {
		t.Fatal(err)
	}
	if busy <= 0 || steal < 0 {
		t.Fatalf("vmTicks = busy %d, steal %d; want busy > 0 and steal >= 0", busy, steal)
	}
}
