package main

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// programPackages lists every package directory of the program under test,
// relative to the module root, skipping this benchmark and test data.
func programPackages(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != ".." && (name == "eofbench" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel("..", filepath.Dir(path))
		if err != nil {
			return err
		}
		if rel == "." {
			rel = ""
		}
		seen[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for p := range seen {
		out = append(out, p)
	}
	return out
}

func TestEveryPackageFoldsIntoOneLayer(t *testing.T) {
	pkgs := programPackages(t)
	internal := 0
	for _, pkg := range pkgs {
		if strings.HasPrefix(pkg, "internal/") {
			internal++
		}
		var matched []string
		for _, r := range layerRules {
			if ruleMatches(r.pkg, pkg) {
				matched = append(matched, r.pkg)
			}
		}
		if len(matched) != 1 {
			t.Errorf("package %q matches %d layer rules %v, want exactly 1", pkg, len(matched), matched)
		}
	}
	if internal < 30 {
		t.Fatalf("found only %d internal packages; is the test running inside the repository?", internal)
	}
}

func TestLayerRulesNameKnownLayers(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	used := map[string]bool{"gc": true}
	for _, r := range layerRules {
		if !known[r.layer] {
			t.Errorf("rule %q names unknown layer %q", r.pkg, r.layer)
		}
		used[r.layer] = true
	}
	for _, l := range layers {
		if !used[l] {
			t.Errorf("layer %q has no rule", l)
		}
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", modulePath + "/internal/rtos.(*Kernel).Tick", modulePath + "/internal/core.(*Engine).Run"}, "rtos"},
		{[]string{modulePath + "/internal/os/freertos.(*Port).Yield"}, "rtos"},
		{[]string{"syscall.Syscall", modulePath + "/eofbench.(*timedLink).Continue", modulePath + "/internal/core.(*Engine).iteration"}, "core"},
		{[]string{modulePath + ".NewCampaign", "main.main"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.mcall"}, ""},
	} {
		if got := layerOfStack(tc.frames); got != tc.want {
			t.Errorf("layerOfStack(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

var spinSink int

//go:noinline
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += i
		}
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Frames run innermost first: spin sits inside the test runner. Under
	// the race detector many samples land in its C runtime without Go
	// frames, so only some samples need to show spin.
	spun := 0
	for _, s := range stacks {
		at := map[string]int{}
		for i, f := range s.frames {
			at[f] = i
		}
		i, ok := at[benchPkg+".spin"]
		if !ok {
			continue
		}
		spun++
		if j, ok := at["testing.tRunner"]; !ok || j < i {
			t.Fatalf("spin's stack is not innermost first: %v", s.frames)
		}
	}
	if spun == 0 {
		t.Fatalf("none of %d profile stacks passes through spin", len(stacks))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("parseProfile accepted garbage")
	}
}
