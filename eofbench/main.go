// Command eofbench is EOF's benchmark: it runs one workload as a closed
// loop for a fixed host time and prints every metric by name with its unit,
// on both clocks, after checking that the campaigns' outputs are correct.
//
//	go run . --workload solo --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics through the public
// eof.NewCampaign(...).Run and server.Server APIs. With --trace 1 it runs
// the same workload and seed untraced once more, then traced: calls into
// each layer's entry points are timed from this package's own wrappers and
// a CPU profile is folded by package into per-layer host shares. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// See README.md for the workloads and the per-layer to end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one benchmark run reports. Correctness failures count
// against Failed; Correct is false when any check failed.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one benchmark run's outcome.
type run struct {
	res      result
	problems []string
	notes    []string
}

func newRun() *run {
	return &run{res: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *run) set(name, unit string, v float64) { r.res.Metrics[name] = metric{Value: v, Unit: unit} }

// op counts one attempted operation or run-level check and, when err is
// non-nil, its failure.
func (r *run) op(err error) bool {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		r.res.Correct = false
		r.problems = append(r.problems, err.Error())
		return false
	}
	return true
}

func (r *run) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// params are the command-line inputs every workload receives.
type params struct {
	seed    int64
	seconds time.Duration
	traced  bool
	work    string // scratch directory inside the checkout
}

// workload is one benchmark input set; BENCHMARK.json and README.md give
// the reason for each.
type workload struct {
	name string
	run  func(p params, r *run) error
}

// heldOutSeed is reserved for confirming gain claims: tune and develop
// against other seeds, then check the claim once on this one.
const heldOutSeed = 9001

func main() { os.Exit(benchMain()) }

// benchMain runs one workload and returns the exit code: 0 once a result
// is printed, 1 when the benchmark could not run, 2 on bad flags.
func benchMain() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed (inputs derive from it)")
	seconds := flag.Int("seconds", 10, "host seconds to measure")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	work := flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores and journals")
	flag.Parse()

	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "eofbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || *traced < 0 || *traced > 1 || *seed < 0 {
		fmt.Fprintln(os.Stderr, "eofbench: need --seconds >= 1, --trace 0|1 and --seed >= 0")
		return 2
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "eofbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, w.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "eofbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := newRun()
	p := params{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1, work: dir}
	if err := w.run(p, r); err != nil {
		fmt.Fprintf(os.Stderr, "eofbench: %s: %v\n", w.name, err)
		return 1
	}
	if r.res.Attempted == 0 {
		fmt.Fprintf(os.Stderr, "eofbench: %s attempted no operation\n", w.name)
		return 1
	}
	for _, n := range r.notes {
		fmt.Println("note: " + n)
	}
	for _, pr := range r.problems {
		fmt.Fprintln(os.Stderr, "eofbench: check failed: "+pr)
		fmt.Println("check failed: " + pr)
	}
	printEnv(w.name, *seed, procs)
	printTable(r.res.Metrics)
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eofbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// printEnv records what the numbers were measured on.
func printEnv(workload string, seed int64, procs int) {
	// The go command stamps the commit when it builds inside a git checkout.
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	env := map[string]string{
		"workload": workload, "seed": strconv.FormatInt(seed, 10),
		"held_out_seed": strconv.Itoa(heldOutSeed), "go": runtime.Version(),
		"commit": commit, "nproc": strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(procs),
	}
	b, _ := json.Marshal(env) // a map of strings always encodes
	fmt.Println("env: " + string(b))
}

func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
