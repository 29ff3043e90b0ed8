package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middles for an even
// count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, with that percentile. Below 21 samples that percentile would
// not lie above the median, so the maximum is returned as p100.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 20 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB since the
// last resetPeakRSS.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts the kernel's peak-resident-set counter, so the next
// peakRSSMB covers only what follows.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// vmTicks reads the VM's busy and stolen CPU time so far, in clock ticks
// summed over its CPUs, from the first line of /proc/stat. Busy counts
// user, nice, system, irq and softirq time; steal is the time a CPU wanted
// to run and the hypervisor ran another guest instead.
func vmTicks() (busy, steal int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("VM CPU time: %w", err)
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("VM CPU time: no steal column in /proc/stat: %q", line)
	}
	var t [8]int64
	for i := range t {
		if t[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return 0, 0, fmt.Errorf("VM CPU time: %w", err)
		}
	}
	// user nice system idle iowait irq softirq steal
	return t[0] + t[1] + t[2] + t[5] + t[6], t[7], nil
}

// hostClock names a clock a host-time figure is read on.
type hostClock int

const (
	// servedClock, the clock every host-time metric reads, is wall-clock
	// time scaled by the share of the VM's CPU demand the hypervisor
	// served over the interval: busy / (busy + steal). A CPU stolen for a
	// while stalls whatever ran on it, so the scaling takes out about the
	// time the machine's other guests took, and keeps everything the wall
	// clock sees: epoch barriers, locks, fsyncs, queueing and shards or
	// boards running in parallel.
	servedClock hostClock = iota
	// wallClock also counts the time other guests took; on a shared 2-vCPU
	// VM that moved figures for the same work by up to half.
	wallClock
	// cpuClock is the process's CPU seconds: no waiting and no
	// parallelism, and a kernel without steal accounting counts stolen
	// time in it too.
	cpuClock
)

func (c hostClock) String() string {
	switch c {
	case wallClock:
		return "wall"
	case cpuClock:
		return "CPU"
	}
	return "served"
}

// hostSpan is one host-time interval read on every clock. err is set when
// the VM's CPU time could not be read, so the served figure is missing.
type hostSpan struct {
	wall, cpu, served time.Duration
	err               error
}

// startSpan starts an interval; calling the result ends it.
func startSpan() func() hostSpan {
	busy0, steal0, err0 := vmTicks()
	w, c := time.Now(), cpuTime()
	return func() hostSpan {
		s := hostSpan{wall: time.Since(w), cpu: cpuTime() - c}
		busy, steal, err := vmTicks()
		if s.err = errors.Join(err0, err); s.err != nil {
			return s
		}
		s.served = served(s.wall, busy-busy0, steal-steal0)
		return s
	}
}

// served scales a wall-clock interval by the share of the VM's CPU demand
// over it that was served, busy / (busy + steal). An interval too short
// for the tick counters to move keeps its wall time.
func served(wall time.Duration, busy, steal int64) time.Duration {
	if busy+steal <= 0 {
		return wall
	}
	return time.Duration(float64(wall) * float64(busy) / float64(busy+steal))
}

func (s hostSpan) on(c hostClock) time.Duration {
	switch c {
	case wallClock:
		return s.wall
	case cpuClock:
		return s.cpu
	}
	return s.served
}

// noteThroughput prints the throughput metrics on the wall and CPU clocks
// beside the served ones, with the share of the interval the served clock
// left out, so a run on a crowded machine can be told apart from a slower
// program.
func noteThroughput(r *run, s hostSpan, execs int, board time.Duration, jobs int) {
	r.note("stolen share of wall time: %.3f", 1-ratio(s.served.Seconds(), s.wall.Seconds()))
	for _, c := range []hostClock{wallClock, cpuClock} {
		sec := s.on(c).Seconds()
		r.note("per %s second (%.2f s): execs %.1f, board s %.1f, jobs %.3f", c, sec,
			float64(execs)/sec, board.Seconds()/sec, float64(jobs)/sec)
	}
}
