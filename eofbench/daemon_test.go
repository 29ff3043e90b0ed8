package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// A job's slices each start on a fresh engine clock that also counts the
// slice's bring-up; the rebuilt curve must start every slice at its first
// exec and after the board time the earlier slices accounted.
func TestReadJobJournalRebasesSlices(t *testing.T) {
	journal := strings.Join([]string{
		`{"kind":"journal","v":1}`,
		`{"seq":0,"at_ns":300,"shard":0,"kind":"exec-begin","exec":1}`,
		`{"seq":1,"at_ns":350,"shard":0,"kind":"cov-gain","edges":10}`,
		`{"seq":2,"at_ns":1300,"shard":0,"kind":"bug","reason":"sig-a"}`,
		`{"seq":3,"at_ns":1300,"shard":0,"kind":"time-budget","reason":"duration","dur_ns":1000}`,
		`{"seq":0,"at_ns":1300,"shard":-1,"kind":"checkpoint","exec":1,"edges":10}`,
		`{"kind":"journal","v":1}`,
		`{"seq":0,"at_ns":500,"shard":0,"kind":"exec-begin","exec":1}`,
		`{"seq":1,"at_ns":520,"shard":0,"kind":"cov-gain","edges":5}`,
		`{"seq":2,"at_ns":1700,"shard":0,"kind":"time-budget","reason":"duration","dur_ns":1200}`,
	}, "\n") + "\n"
	path := filepath.Join(t.TempDir(), "job.jsonl")
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	jj, err := readJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][2]int64{{50, 10}, {1020, 15}}; !reflect.DeepEqual(jj.curve, want) {
		t.Errorf("curve %v, want %v", jj.curve, want)
	}
	if jj.boardNS != 2200 {
		t.Errorf("board time %d, want 2200", jj.boardNS)
	}
	if !reflect.DeepEqual(jj.sigs, []string{"sig-a"}) {
		t.Errorf("bugs %v", jj.sigs)
	}
}

func TestMeanTimeToEdges(t *testing.T) {
	curves := [][][2]int64{{{1e9, 10}, {3e9, 30}}, {{2e9, 20}}}
	// At 2 s the mean is (10+20)/2 = 15 and at 3 s (30+20)/2 = 25, so 20
	// edges fall halfway between.
	if at, err := meanTimeToEdges(curves, 20); err != nil || at != 2.5 {
		t.Errorf("got %v, %v; want 2.5 s", at, err)
	}
	if _, err := meanTimeToEdges(curves, 100); err == nil {
		t.Error("unreached target gave no error")
	}
	if _, err := meanTimeToEdges([][][2]int64{{{2e9, 10}, {1e9, 20}}}, 15); err == nil {
		t.Error("a curve stepping back in time gave no error")
	}
}
