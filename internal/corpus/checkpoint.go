package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// CheckpointVersion is the checkpoint schema version; decoders refuse
// versions they do not know.
const CheckpointVersion = 1

// ResumeSeedStride separates the RNG streams of successive campaign epochs:
// a resumed campaign continues from NextSeed = Seed + epochs*stride, so it
// explores fresh programs instead of replaying the finished run's generation
// sequence, while staying a pure function of the checkpoint (resume is
// deterministic).
const ResumeSeedStride = 7_368_787

// ShardSeedStride mirrors the fleet's per-shard RNG stride: shard i of a
// campaign based at seed S runs with S + i*stride. Checkpoint cursors record
// the per-shard seeds a resume will derive, so they are auditable offline.
const ShardSeedStride = 1_000_003

// ShardCursor is one shard slot's resumable RNG position: the seed the slot
// will continue with after resume, plus the execs it had completed at the
// checkpoint (provenance for throughput accounting across runs).
type ShardCursor struct {
	Shard int   `json:"shard"`
	Seed  int64 `json:"seed"`
	Execs int   `json:"execs"`
}

// Checkpoint is the resumable campaign state snapshotted at every epoch
// barrier. Field order is the canonical serialization order; Checksum is a
// SHA-256 over the encoding with the Checksum field empty, so torn or
// bit-flipped checkpoint files are self-detecting.
type Checkpoint struct {
	V     int    `json:"v"`
	OS    string `json:"os"`
	Board string `json:"board"`
	// Seed is the campaign's base RNG seed; NextSeed is the base seed a
	// resumed campaign must continue with (per-shard seeds derive from it by
	// ShardSeedStride, as recorded in Cursors).
	Seed     int64 `json:"seed"`
	NextSeed int64 `json:"next_seed"`
	// Epoch counts completed barriers across the campaign's whole life
	// (resumed runs keep counting); Elapsed is cumulative virtual campaign
	// time across runs.
	Epoch   int           `json:"epoch"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// Edges is the cumulative coverage bitmap (sorted distinct edge IDs);
	// Corpus is the store membership in admission order (hashes into
	// blobs/); Clusters are the known crash-dedup keys, sorted.
	Edges    []uint32 `json:"edges"`
	Corpus   []string `json:"corpus"`
	Clusters []string `json:"clusters"`
	// Cursors records each hardware shard slot's resume position.
	Cursors []ShardCursor `json:"cursors,omitempty"`
	// Distills counts store distillations so far.
	Distills int    `json:"distills,omitempty"`
	Checksum string `json:"checksum"`
}

// EncodeCheckpoint renders ck with its self-checksum filled in.
func EncodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	c := *ck
	c.V = CheckpointVersion
	c.Checksum = ""
	body, err := json.Marshal(&c)
	if err != nil {
		return nil, fmt.Errorf("corpus: checkpoint encode: %w", err)
	}
	sum := sha256.Sum256(body)
	c.Checksum = hex.EncodeToString(sum[:])
	return json.Marshal(&c)
}

// DecodeCheckpoint parses and validates a checkpoint: schema version,
// self-checksum, and basic shape. It fails loudly on any mismatch so the
// caller can quarantine the file and degrade to the previous checkpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("corpus: bad checkpoint: %w", err)
	}
	if ck.V != CheckpointVersion {
		return nil, fmt.Errorf("corpus: checkpoint schema v%d is not supported (this build reads v%d)", ck.V, CheckpointVersion)
	}
	want := ck.Checksum
	if len(want) != sha256.Size*2 {
		return nil, fmt.Errorf("corpus: checkpoint has no valid checksum")
	}
	c := ck
	c.Checksum = ""
	body, err := json.Marshal(&c)
	if err != nil {
		return nil, fmt.Errorf("corpus: checkpoint re-encode: %w", err)
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, fmt.Errorf("corpus: checkpoint checksum mismatch (torn or corrupt write)")
	}
	if ck.Epoch < 0 || ck.Elapsed < 0 {
		return nil, fmt.Errorf("corpus: checkpoint has negative epoch or elapsed time")
	}
	for _, h := range ck.Corpus {
		if len(h) != sha256.Size*2 {
			return nil, fmt.Errorf("corpus: checkpoint corpus hash %q is not a sha256", h)
		}
	}
	return &ck, nil
}

// WriteCheckpoint makes ck durable under the rotation protocol: the current
// checkpoint (if any) is first rotated to checkpoint.prev.json, then the new
// one is written atomically (temp + fsync + rename + directory fsync). Every
// blob and manifest line ck references must already be durable — Persister
// guarantees that ordering.
func (s *Store) WriteCheckpoint(ck *Checkpoint) error {
	ck.OS, ck.Board = s.os, s.brd
	data, err := EncodeCheckpoint(ck)
	if err != nil {
		return err
	}
	cur, prev := checkpointFiles(s.dir)
	if _, err := os.Stat(cur); err == nil {
		if err := os.Rename(cur, prev); err != nil {
			return fmt.Errorf("corpus: checkpoint rotate: %w", err)
		}
	}
	if err := WriteFileSync(cur, data); err != nil {
		return fmt.Errorf("corpus: checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint returns the last good checkpoint, walking the rotation:
// a missing, torn or corrupt checkpoint.json is quarantined into
// <root>/damaged/ with a warning and checkpoint.prev.json is tried next.
// A store with no readable checkpoint returns (nil, nil) — an empty store
// is not an error, it is a fresh campaign.
func (s *Store) LoadCheckpoint() (*Checkpoint, error) {
	cur, prev := checkpointFiles(s.dir)
	for _, path := range []string{cur, prev} {
		data, err := os.ReadFile(path)
		if err != nil {
			if !os.IsNotExist(err) {
				s.warnf("%s: %v", filepath.Base(path), err)
			}
			continue
		}
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			dst := s.quarantine(path)
			s.warnf("%s: %v (quarantined to %s, degrading to previous checkpoint)",
				filepath.Base(path), err, dst)
			continue
		}
		if ck.OS != s.os || ck.Board != s.brd {
			return nil, fmt.Errorf("corpus: checkpoint is for %s/%s, store namespace is %s/%s",
				ck.OS, ck.Board, s.os, s.brd)
		}
		return ck, nil
	}
	return nil, nil
}

// checkpointFiles returns the current and rotated checkpoint paths of the
// store directory dir.
func checkpointFiles(dir string) (cur, prev string) {
	return filepath.Join(dir, "checkpoint.json"), filepath.Join(dir, "checkpoint.prev.json")
}

// HasCheckpoint reports whether the store namespace OpenNamespace(root,
// namespace, osName, board) would open holds a checkpoint file (current or
// rotated), without opening it or creating any directory. A true result
// means Resume has state to try; LoadCheckpoint still validates it.
func HasCheckpoint(root, namespace, osName, board string) bool {
	cur, prev := checkpointFiles(dirFor(root, namespace, osName, board))
	for _, path := range []string{cur, prev} {
		if _, err := os.Stat(path); err == nil {
			return true
		}
	}
	return false
}

// Resume is everything a campaign rebuilds its state from: the last good
// checkpoint (nil when the store never completed a barrier) and the verified
// corpus entries in admission order. Entries past the checkpoint's corpus
// list — admitted in the epoch a crash interrupted — are included: their
// blobs verified, so they are usable coverage the crashed run paid for.
type Resume struct {
	Ck      *Checkpoint
	Entries []*Entry
}

// LoadResume loads the store's resumable state, degrading (with warnings on
// the store) through torn manifests, damaged blobs and corrupt checkpoints.
// Checkpoint corpus hashes whose entries did not survive verification are
// reported as warnings; the checkpoint's coverage bitmap remains valid — the
// edges were truly observed even if a seed that found them was lost.
func (s *Store) LoadResume() (*Resume, error) {
	ck, err := s.LoadCheckpoint()
	if err != nil {
		return nil, err
	}
	if ck != nil {
		for _, h := range ck.Corpus {
			if _, ok := s.entries[h]; !ok {
				s.warnf("checkpoint references corpus entry %s that did not survive verification", shortHash(h))
			}
		}
	}
	return &Resume{Ck: ck, Entries: s.Entries()}, nil
}
