package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modulePath is the import path of the program under test.
const modulePath = "github.com/eof-fuzz/eof"

// layerRules folds the program's packages (relative to modulePath) into the
// benchmark's layers. A rule ending in "/..." covers every package below
// that directory; any other rule names one package. Every package must
// match exactly one rule (layers_test.go checks the tree), so a new package
// cannot fall silently into "other".
var layerRules = []struct{ pkg, layer string }{
	// Kernel simulation: the RTOS core, the five OS personalities and the
	// applications they host.
	{"internal/rtos", "rtos"},
	{"internal/os/...", "rtos"},
	{"internal/app/...", "rtos"},
	{"internal/ostest", "rtos"},
	{"internal/cpu", "cpu"},
	{"internal/cov", "cov"},
	// Board model.
	{"internal/board", "board"},
	{"internal/boards", "board"},
	{"internal/flash", "board"},
	{"internal/mem", "board"},
	{"internal/uart", "board"},
	{"internal/fsb", "board"},
	{"internal/vtime", "board"},
	// Debug probe: the ocd server and client, the RSP framing with its hex
	// codec, and the mailbox wire format.
	{"internal/ocd", "ocd"},
	{"internal/rsp", "ocd"},
	{"internal/wire", "ocd"},
	{"internal/link", "link"},
	{"internal/backend", "backend"},
	{"internal/emul", "backend"},
	// Fuzzing engine and its drivers.
	{"", "core"},
	{"internal/core", "core"},
	{"internal/prog", "core"},
	{"internal/agent", "core"},
	{"internal/triage", "core"},
	{"internal/bugdb", "core"},
	{"internal/baselines/...", "core"},
	{"internal/experiments", "core"},
	// Specification pipeline and target descriptions.
	{"internal/specgen", "spec"},
	{"internal/syzlang", "spec"},
	{"internal/osinfo", "spec"},
	{"internal/targets", "spec"},
	{"internal/sym", "spec"},
	// Observability sinks.
	{"internal/trace", "trace"},
	{"internal/journal", "trace"},
	{"internal/metrics", "trace"},
	{"internal/corpus", "corpus"},
	{"internal/fleet", "fleet"},
	{"internal/server", "server"},
	{"internal/sched", "server"},
	// Command-line front ends.
	{"cmd/...", "core"},
	{"examples/...", "core"},
}

// layers lists every layer in report order; "gc" is the Go runtime's
// background garbage collection.
var layers = []string{
	"rtos", "cpu", "cov", "board", "ocd", "link", "backend", "core",
	"spec", "trace", "corpus", "fleet", "server", "gc",
}

func ruleMatches(rule, pkg string) bool {
	if dir, ok := strings.CutSuffix(rule, "/..."); ok {
		return pkg == dir || strings.HasPrefix(pkg, dir+"/")
	}
	return pkg == rule
}

// layerOfPkg maps a package path relative to modulePath to its layer, or ""
// when no rule matches.
func layerOfPkg(rel string) string {
	for _, r := range layerRules {
		if ruleMatches(r.pkg, rel) {
			return r.layer
		}
	}
	return ""
}

// benchPkg is this benchmark's own package: its wrapper frames are skipped
// so their time lands on the layer they call or are called from.
const benchPkg = modulePath + "/eofbench"

// funcPackage extracts the import path from a symbol name such as
// "github.com/eof-fuzz/eof/internal/rtos.(*Kernel).Sleep".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// gcRoots are the runtime entry points of background collection work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime._GC",
}

// layerOfStack attributes one sample, innermost frame first, to the
// innermost frame of the program's own code; samples with none go to "gc"
// when they are background collection, else to "".
func layerOfStack(frames []string) string {
	for _, fn := range frames {
		pkg := funcPackage(fn)
		if pkg == benchPkg || !(pkg == modulePath || strings.HasPrefix(pkg, modulePath+"/")) {
			continue
		}
		return layerOfPkg(strings.TrimPrefix(strings.TrimPrefix(pkg, modulePath), "/"))
	}
	for _, fn := range frames {
		for _, root := range gcRoots {
			if fn == root {
				return "gc"
			}
		}
	}
	return ""
}

// foldProfile folds a CPU profile (pprof protobuf, gzipped as
// runtime/pprof writes it) into per-layer sample counts. The "" key holds
// unattributed samples.
func foldProfile(data []byte) (map[string]int64, error) {
	stacks, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range stacks {
		out[layerOfStack(s.frames)] += s.count
	}
	return out, nil
}

// stack is one profile sample: its frames innermost first and its count.
type stack struct {
	frames []string
	count  int64
}

// parseProfile decodes the subset of profile.proto the fold needs:
// samples (location ids and values), locations (inlined line entries,
// innermost first), functions and the string table.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					values = appendPacked(values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendPacked appends a repeated varint field that arrived either packed
// (b holds the varints) or unpacked (v is one value).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value (b == nil) or its length-delimited bytes.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}
