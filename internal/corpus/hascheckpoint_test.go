package corpus

import "testing"

// TestHasCheckpoint checks the resume probe against the store's own layout:
// an opened but never checkpointed namespace reads false, and a committed
// checkpoint makes exactly that namespace read true.
func TestHasCheckpoint(t *testing.T) {
	root := t.TempDir()
	s, err := OpenNamespace(root, "job-1", "freertos", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	if HasCheckpoint(root, "job-1", "freertos", "stm32h745") {
		t.Fatal("empty namespace reports a checkpoint")
	}
	if err := s.WriteCheckpoint(&Checkpoint{Seed: 1, NextSeed: 2, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if !HasCheckpoint(root, "job-1", "freertos", "stm32h745") {
		t.Fatal("committed checkpoint not found")
	}
	for _, other := range [][3]string{
		{"job-2", "freertos", "stm32h745"},
		{"", "freertos", "stm32h745"},
		{"job-1", "rtthread", "stm32h745"},
		{"job-1", "freertos", "esp32c3"},
	} {
		if HasCheckpoint(root, other[0], other[1], other[2]) {
			t.Fatalf("namespace %v sees job-1's checkpoint", other)
		}
	}

	// Un-namespaced stores use the plain per-target layout.
	plain, err := Open(root, "nuttx", "stm32h745")
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.WriteCheckpoint(&Checkpoint{Seed: 1, NextSeed: 2, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if !HasCheckpoint(root, "", "nuttx", "stm32h745") {
		t.Fatal("plain-layout checkpoint not found")
	}
}
