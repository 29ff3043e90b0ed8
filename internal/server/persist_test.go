package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestJobTableDurableWrites checks the job table's write path end to end: a
// temp row left by a crash mid-persist is ignored on adoption, and
// persisting a job leaves exactly its row, with no temp file beside it.
func TestJobTableDurableWrites(t *testing.T) {
	dataDir := t.TempDir()
	jobs := jobsDir(dataDir)
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		t.Fatal(err)
	}
	// A crash between the temp file's creation and its rename leaves a
	// partial row under the durable writer's temp name.
	if err := os.WriteFile(filepath.Join(jobs, ".tmp-123456"), []byte(`{"id":"c-000009","ten`), 0o600); err != nil {
		t.Fatal(err)
	}
	var logs []string
	srv, err := New(Options{DataDir: dataDir, Boards: 1, Quantum: time.Minute, Logf: func(f string, a ...interface{}) {
		logs = append(logs, fmt.Sprintf(f, a...))
	}})
	if err != nil {
		t.Fatalf("New over a table with a temp row: %v", err)
	}
	defer srv.Stop()
	if n := len(srv.recs); n != 0 {
		t.Fatalf("adopted %d jobs from a temp row", n)
	}
	for _, l := range logs {
		if strings.Contains(l, ".tmp-") {
			t.Fatalf("adoption read the temp row: %s", l)
		}
	}

	rec := &Record{ID: "c-000001", Tenant: "alice", State: "queued"}
	if err := srv.persist(rec); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if want := []string{".tmp-123456", "c-000001.json"}; strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("job table holds %v, want %v", names, want)
	}
}
