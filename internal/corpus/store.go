// Package corpus is the campaign persistence layer: a content-addressed
// on-disk corpus store plus an epoch-checkpoint format that together make a
// fuzzing campaign crash-safe. Everything the in-memory campaign accumulates
// — coverage-increasing programs with their edge attribution, the cumulative
// coverage bitmap, crash dedup clusters, elapsed virtual time and per-shard
// RNG cursors — is written durably at every fleet epoch barrier, so a
// `kill -9` or host crash loses at most the epoch in flight.
//
// On-disk layout, namespaced per target so one store root can accumulate
// corpora for many OS/board pairs:
//
//	<root>/<os>/<board>/blobs/<sha256>.json   program blobs (portable JSON form)
//	<root>/<os>/<board>/manifest.jsonl        append-only admission provenance
//	<root>/<os>/<board>/checkpoint.json       last epoch-barrier checkpoint
//	<root>/<os>/<board>/checkpoint.prev.json  the rotation's previous checkpoint
//	<root>/damaged/                           quarantined corrupt/torn files
//
// Crash-consistency protocol (write-ahead ordering): blobs are written to a
// temp file, fsynced and atomically renamed into place before their manifest
// line is appended and fsynced; the checkpoint is only written (temp + fsync
// + rename + directory fsync) after every blob and manifest line it
// references is durable. A reader therefore interprets the store as: the
// checkpoint is authoritative for coverage, clusters, elapsed time and RNG
// cursors; the manifest is authoritative for corpus membership (a manifest
// tail past the checkpoint is a bonus from the interrupted epoch, a torn
// final manifest line is discarded with a warning); orphan blobs are
// harmless. Corrupt files detected by checksum are quarantined into
// <root>/damaged/ and the campaign degrades to the last good state instead
// of failing.
package corpus

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Entry is one persisted corpus admission: a program blob plus the
// provenance recorded in the manifest.
type Entry struct {
	// Hash is the blob's SHA-256 (hex) — its content address and identity.
	Hash string
	// Prog is the program in portable JSON form (the blob's content).
	Prog []byte
	// NewEdges is how many globally new edges the seed contributed at
	// admission; Edges lists those edge IDs (the attribution distillation
	// minimizes over).
	NewEdges int
	Edges    []uint32
	// Shard is the fleet slot that admitted the seed; Epoch the barrier
	// ordinal it was persisted at; At the campaign virtual time of that
	// barrier.
	Shard int
	Epoch int
	At    time.Duration
}

// manifestLine is Entry's JSONL wire form (the blob itself lives under
// blobs/, keyed by Hash).
type manifestLine struct {
	Hash     string   `json:"hash"`
	NewEdges int      `json:"new_edges"`
	Edges    []uint32 `json:"edges,omitempty"`
	Shard    int      `json:"shard"`
	Epoch    int      `json:"epoch"`
	AtNS     int64    `json:"at_ns"`
}

// Store is one open per-target namespace of an on-disk corpus root.
type Store struct {
	root string // store root (holds damaged/)
	dir  string // <root>/<os>/<board>
	os   string
	brd  string

	entries  map[string]*Entry // by hash
	order    []string          // admission order (manifest order)
	warnings []string
}

// HashBlob returns the content address of a program blob.
func HashBlob(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Open opens (creating as needed) the store namespace for one OS/board pair
// and loads its manifest. Torn or corrupt manifest tails and blobs that fail
// their content-address check are tolerated: the bad record is dropped (and
// a damaged blob quarantined), a warning is recorded, and the store carries
// on with every verified entry.
func Open(root, osName, board string) (*Store, error) {
	return openDir(root, filepath.Join(root, osName, board), osName, board)
}

// OpenNamespace opens a per-campaign namespace of the store root: the same
// layout and crash-consistency protocol as Open, but rooted at
// <root>/ns/<namespace>/<os>/<board> so many campaigns (a daemon's jobs)
// can share one store root without ever seeing each other's corpora. The
// literal "ns" path segment keeps namespaced campaigns disjoint from the
// plain per-target layout, whatever the namespace is called. An empty
// namespace degrades to Open; quarantined damage still lands in the shared
// <root>/damaged/.
func OpenNamespace(root, namespace, osName, board string) (*Store, error) {
	if namespace == "" {
		return Open(root, osName, board)
	}
	if !ValidNamespace(namespace) {
		return nil, fmt.Errorf("corpus: invalid namespace %q (want [a-zA-Z0-9._-]+, not . or ..)", namespace)
	}
	return openDir(root, filepath.Join(root, "ns", namespace, osName, board), osName, board)
}

// ValidNamespace reports whether a campaign namespace is safe to use as a
// single path segment: ASCII letters, digits, dot, underscore and dash,
// and not a relative-path alias.
func ValidNamespace(ns string) bool {
	if ns == "" || ns == "." || ns == ".." || len(ns) > 128 {
		return false
	}
	for _, r := range ns {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

func openDir(root, dir, osName, board string) (*Store, error) {
	s := &Store{
		root:    root,
		dir:     dir,
		os:      osName,
		brd:     board,
		entries: make(map[string]*Entry),
	}
	for _, d := range []string{filepath.Join(s.dir, "blobs"), filepath.Join(root, "damaged")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
	}
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the namespace directory (<root>/<os>/<board>).
func (s *Store) Dir() string { return s.dir }

// Len returns the number of verified corpus entries.
func (s *Store) Len() int { return len(s.order) }

// Entries returns the verified corpus entries in admission order.
func (s *Store) Entries() []*Entry {
	out := make([]*Entry, 0, len(s.order))
	for _, h := range s.order {
		out = append(out, s.entries[h])
	}
	return out
}

// Warnings returns the degradations Open tolerated (torn manifest tail,
// quarantined blobs, checkpoint fallback), in detection order.
func (s *Store) Warnings() []string { return s.warnings }

func (s *Store) warnf(format string, args ...any) {
	s.warnings = append(s.warnings, fmt.Sprintf(format, args...))
}

// loadManifest replays manifest.jsonl, verifying each referenced blob
// against its content address. A line that fails to decode truncates the
// manifest there (torn tail from a crashed writer); a blob that is missing
// or hash-mismatched drops its entry and quarantines the damaged file.
func (s *Store) loadManifest() error {
	f, err := os.Open(s.manifestPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		e, err := ParseManifestLine(line)
		if err != nil {
			// A torn or corrupt line invalidates everything after it: the
			// manifest is append-only, so whatever follows was written even
			// later by the same interrupted writer.
			s.warnf("manifest line %d: %v (truncating manifest there)", lineNo, err)
			break
		}
		if prior, ok := s.entries[e.Hash]; ok {
			// Re-admissions can appear when two shards broadcast the same
			// program; the first record wins, keeping admission order stable.
			_ = prior
			continue
		}
		blob, err := s.readBlob(e.Hash)
		if err != nil {
			s.warnf("entry %s: %v (dropped)", shortHash(e.Hash), err)
			continue
		}
		e.Prog = blob
		s.entries[e.Hash] = e
		s.order = append(s.order, e.Hash)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("corpus: manifest: %w", err)
	}
	return nil
}

// ParseManifestLine decodes and validates one manifest JSONL record. The
// blob content is not loaded (Entry.Prog stays nil).
func ParseManifestLine(line []byte) (*Entry, error) {
	var ml manifestLine
	if err := json.Unmarshal(line, &ml); err != nil {
		return nil, fmt.Errorf("bad manifest record: %w", err)
	}
	if len(ml.Hash) != sha256.Size*2 {
		return nil, fmt.Errorf("bad manifest record: hash %q is not a sha256", ml.Hash)
	}
	if _, err := hex.DecodeString(ml.Hash); err != nil {
		return nil, fmt.Errorf("bad manifest record: hash %q is not hex", ml.Hash)
	}
	if ml.NewEdges < 0 || ml.Shard < -1 || ml.Epoch < 0 || ml.AtNS < 0 {
		return nil, fmt.Errorf("bad manifest record: negative field")
	}
	return &Entry{
		Hash:     ml.Hash,
		NewEdges: ml.NewEdges,
		Edges:    ml.Edges,
		Shard:    ml.Shard,
		Epoch:    ml.Epoch,
		At:       time.Duration(ml.AtNS),
	}, nil
}

// AppendManifestLine appends e's manifest JSONL form (with trailing newline)
// to b — the encoder-side inverse of ParseManifestLine.
func AppendManifestLine(b []byte, e *Entry) []byte {
	enc, err := json.Marshal(manifestLine{
		Hash:     e.Hash,
		NewEdges: e.NewEdges,
		Edges:    e.Edges,
		Shard:    e.Shard,
		Epoch:    e.Epoch,
		AtNS:     int64(e.At),
	})
	if err != nil {
		// manifestLine holds only scalars and a slice; Marshal cannot fail.
		panic("corpus: manifest marshal: " + err.Error())
	}
	b = append(b, enc...)
	return append(b, '\n')
}

// readBlob loads and content-verifies one blob; a hash mismatch quarantines
// the damaged file.
func (s *Store) readBlob(hash string) ([]byte, error) {
	path := s.blobPath(hash)
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("blob missing: %w", err)
	}
	if got := HashBlob(blob); got != hash {
		s.quarantine(path)
		return nil, fmt.Errorf("blob content hash %s does not match name (quarantined)", shortHash(got))
	}
	return blob, nil
}

// Put persists one admission: the blob is made durable first (temp + fsync +
// atomic rename), then its manifest line is appended and fsynced — the
// write-ahead order that lets a crash at any point leave the store loadable.
// A blob already present (same content found by another shard or epoch) is
// deduplicated; Put reports whether a new entry was admitted.
func (s *Store) Put(e Entry) (bool, error) {
	if e.Hash == "" {
		e.Hash = HashBlob(e.Prog)
	}
	if _, ok := s.entries[e.Hash]; ok {
		return false, nil
	}
	bp := s.blobPath(e.Hash)
	if _, err := os.Stat(bp); err != nil {
		// Not already durable from an interrupted epoch: write it now.
		if err := WriteFileSync(bp, e.Prog); err != nil {
			return false, fmt.Errorf("corpus: blob %s: %w", shortHash(e.Hash), err)
		}
	}
	if err := appendFileSync(s.manifestPath(), AppendManifestLine(nil, &e)); err != nil {
		return false, fmt.Errorf("corpus: manifest: %w", err)
	}
	ne := e
	s.entries[e.Hash] = &ne
	s.order = append(s.order, e.Hash)
	return true, nil
}

// quarantine moves a corrupt file into <root>/damaged/ under a unique name,
// best effort: quarantine must never turn a degraded load into a failure.
func (s *Store) quarantine(path string) string {
	base := filepath.Base(path)
	for i := 0; ; i++ {
		name := base
		if i > 0 {
			name = fmt.Sprintf("%s.%d", base, i)
		}
		dst := filepath.Join(s.root, "damaged", name)
		if _, err := os.Stat(dst); err == nil {
			continue
		}
		if err := os.Rename(path, dst); err != nil {
			return ""
		}
		return dst
	}
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, "manifest.jsonl") }
func (s *Store) blobPath(hash string) string {
	return filepath.Join(s.dir, "blobs", hash+".json")
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// WriteFileSync writes data to path atomically and durably: a ".tmp-*"
// temp file in the same directory, fsync, rename, directory fsync (best
// effort — some filesystems reject directory syncs). A crash at any point
// leaves either the old file or the new one, never a torn mix; readers that
// scan the directory must skip the temp names. It is the one durable-write
// path for the corpus store and the daemon's job table.
func WriteFileSync(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	syncDir(dir)
	return nil
}

// appendFileSync appends data to path and fsyncs, creating the file if
// missing.
func appendFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Best
// effort: directory sync support varies by filesystem.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// sortEdges returns a sorted copy of an edge set — the canonical checkpoint
// bitmap form, so checkpoints diff cleanly run to run.
func sortEdges(edges []uint32) []uint32 {
	out := append([]uint32(nil), edges...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
