// Package ocd implements the debug probe: an OpenOCD-like server that owns a
// board and exposes it over the RSP-style wire protocol, and the host-side
// client the fuzzer uses. All control and observation — memory access,
// breakpoints, execution, reflash, UART capture — flows through this one
// channel, mirroring the paper's single vendor-agnostic debug interface.
//
// Each command's board semantics are written once, as a typed method of
// Server; the wire handler only parses, dispatches and encodes, and the
// emulated backend calls the same methods in process. The wire handler also
// charges virtual time per command (adapter round trip plus payload
// transfer), which is what makes on-hardware fuzzing throughput land in the
// paper's regime of a few payloads per second.
package ocd

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cov"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/rsp"
)

// Latency models the debug adapter's cost per operation.
type Latency struct {
	// PerCommand is the fixed round-trip cost of one command.
	PerCommand time.Duration
	// BytesPerSec is the payload transfer bandwidth.
	BytesPerSec int
}

// DefaultLatency approximates a USB JTAG adapter driven through OpenOCD.
func DefaultLatency() Latency {
	return Latency{PerCommand: 45 * time.Millisecond, BytesPerSec: 512 * 1024}
}

// transfer returns the time to move n payload bytes.
func (l Latency) transfer(n int) time.Duration {
	if l.BytesPerSec <= 0 {
		return 0
	}
	return time.Duration(n) * time.Second / time.Duration(l.BytesPerSec)
}

// Server owns a board and serves debug commands.
type Server struct {
	Board *board.Board
	Lat   Latency
	// NoVectored rejects the vectored commands (vCovDrain, vRun) with
	// Ebadcmd, modelling probe firmware that predates them; clients fall
	// back to the multi-round-trip sequences.
	NoVectored bool
}

// NewServer creates a server for b with the given latency model.
func NewServer(b *board.Board, lat Latency) *Server {
	return &Server{Board: b, Lat: lat}
}

// Serve processes commands on rw until the link closes or detach.
func (s *Server) Serve(rw io.ReadWriter) error {
	conn := rsp.NewConn(rw)
	for {
		req, err := conn.Recv()
		if err != nil {
			if errors.Is(err, rsp.ErrLinkClosed) {
				return nil
			}
			return err
		}
		resp, detach := s.handle(string(req))
		if err := conn.Send([]byte(resp)); err != nil {
			if errors.Is(err, rsp.ErrLinkClosed) {
				return nil
			}
			return err
		}
		if detach {
			return nil
		}
	}
}

func (s *Server) charge(payloadBytes int) {
	s.Board.Clock.Advance(s.Lat.PerCommand + s.Lat.transfer(payloadBytes))
}

// ereply renders a bare error reply for code c.
func ereply(c Code) string { return "E" + string(c) }

// errReply renders a typed command's error: ErrTimeout as Etimeout, a
// RemoteError as its code plus the hex-encoded message, if any.
func errReply(err error) string {
	var re *RemoteError
	if !errors.As(err, &re) {
		return ereply(CodeTimeout)
	}
	if re.Msg == "" {
		return ereply(re.Code)
	}
	return ereply(re.Code) + ":" + hex.EncodeToString([]byte(re.Msg))
}

// okReply renders the reply to a command that returns only an error.
func okReply(err error) string {
	if err != nil {
		return errReply(err)
	}
	return "OK"
}

// stopReply renders the reply to a resume command.
func stopReply(st cpu.Stop, err error) string {
	if err != nil {
		return errReply(err)
	}
	return encodeStop(st)
}

// handle serves one request: it charges the request's link time, parses
// the wire form, runs the command's typed method and encodes the result.
// The typed methods below hold each command's board semantics; handle adds
// only the wire grammar, the vectored-command gate and the latency model.
func (s *Server) handle(req string) (resp string, detach bool) {
	s.charge(len(req))
	switch {
	case req == "?":
		st, boots, last, _ := s.BoardState()
		return fmt.Sprintf("Qstate:%s;boots:%d;lastboot:%s", st, boots, hex.EncodeToString([]byte(last))), false
	case req == "D":
		return "OK", true
	case req == "qUART":
		lines, _ := s.DrainUART()
		parts := make([]string, len(lines))
		for i, l := range lines {
			parts[i] = hex.EncodeToString([]byte(l))
		}
		return "L" + strings.Join(parts, ";"), false
	case strings.HasPrefix(req, "m"):
		addr, n, err := parseAddrLen(req[1:])
		if err != nil {
			return ereply(CodeBadArgs), false
		}
		data, err := s.ReadMem(addr, n)
		if err != nil {
			return errReply(err), false
		}
		s.charge(n) // response payload costs link time too
		return "D" + hex.EncodeToString(data), false
	case strings.HasPrefix(req, "M"):
		head, data, ok := cutData(req[1:])
		addr, n, err := parseAddrLen(head)
		if !ok || err != nil || n != len(data) {
			return ereply(CodeBadArgs), false
		}
		return okReply(s.WriteMem(addr, data)), false
	case strings.HasPrefix(req, "Z0,"):
		addr, err := strconv.ParseUint(req[3:], 16, 64)
		if err != nil {
			return ereply(CodeBadArgs), false
		}
		return okReply(s.SetBreakpoint(addr)), false
	case strings.HasPrefix(req, "z0,"):
		addr, err := strconv.ParseUint(req[3:], 16, 64)
		if err != nil {
			return ereply(CodeBadArgs), false
		}
		return okReply(s.ClearBreakpoint(addr)), false
	case strings.HasPrefix(req, "c"):
		var budget int64 // empty: the default budget
		if arg := req[1:]; arg != "" {
			b, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || b <= 0 {
				return ereply(CodeBadArgs), false
			}
			budget = b
		}
		return stopReply(s.Continue(budget)), false
	case req == "r":
		return okReply(s.Reset()), false
	case req == "R":
		return okReply(s.PowerCycle()), false
	case strings.HasPrefix(req, "vFlashErase:"):
		off, n, err := parseAddrLen(req[len("vFlashErase:"):])
		if err != nil {
			return ereply(CodeBadArgs), false
		}
		return okReply(s.FlashErase(int(off), n)), false
	case strings.HasPrefix(req, "vFlashWrite:"):
		head, data, ok := cutData(req[len("vFlashWrite:"):])
		off, err := strconv.ParseUint(head, 16, 64)
		if !ok || err != nil {
			return ereply(CodeBadArgs), false
		}
		return okReply(s.FlashWrite(int(off), data)), false
	case s.NoVectored && isVectored(req):
		return ereply(CodeBadCmd), false
	case strings.HasPrefix(req, "vCovDrain:"):
		addr, maxEntries, err := parseAddrLen(req[len("vCovDrain:"):])
		if err != nil {
			return ereply(CodeBadArgs), false
		}
		entries, lost, err := s.DrainCov(addr, maxEntries)
		if err != nil {
			return errReply(err), false
		}
		raw := make([]byte, 4*len(entries))
		for i, e := range entries {
			binary.LittleEndian.PutUint32(raw[4*i:], e)
		}
		s.charge(len(raw)) // response payload costs link time, as in m
		return fmt.Sprintf("V%x;%s", lost, hex.EncodeToString(raw)), false
	case strings.HasPrefix(req, "vRun:"):
		head, data, ok := cutData(req[len("vRun:"):])
		a, b, _ := strings.Cut(head, ",")
		addr, err1 := strconv.ParseUint(a, 16, 64)
		budget, err2 := strconv.ParseInt(b, 10, 64)
		if !ok || err1 != nil || err2 != nil || budget <= 0 {
			return ereply(CodeBadArgs), false
		}
		return stopReply(s.WriteMemContinue(addr, data, budget)), false
	case req == "vSnap":
		return okReply(s.Snapshot()), false
	case req == "vRestore":
		st, err := s.RestoreSnapshot()
		if err != nil {
			return errReply(err), false
		}
		return fmt.Sprintf("S%x,%x,%x,%x", st.FlashSectors, st.RAMPages, st.RestoredBytes, st.SkippedBytes), false
	default:
		return ereply(CodeBadCmd), false
	}
}

// isVectored reports whether req is one of the vectored commands older probe
// firmware does not know.
func isVectored(req string) bool {
	return strings.HasPrefix(req, "vCovDrain:") || strings.HasPrefix(req, "vRun:") ||
		req == "vSnap" || req == "vRestore"
}

// remote wraps a board error as a RemoteError with code c.
func remote(c Code, err error) error { return &RemoteError{Code: c, Msg: err.Error()} }

// deadOr classifies a board error: permanent hardware death gets its own
// code so the host can stop climbing the recovery ladder; anything else
// earns c.
func deadOr(c Code, err error) error {
	if errors.Is(err, board.ErrDead) {
		return remote(CodeDead, err)
	}
	return remote(c, err)
}

// BootError classifies a failed reset or power cycle: CodeDead for permanent
// hardware death, CodeBoot otherwise (a corrupt image, a transient power-on
// failure).
func BootError(err error) error { return deadOr(CodeBoot, err) }

// live reports whether the CPU is reachable; when it is not, commands that
// need a running core time out, which is the watchdog's boot-failure signal.
func (s *Server) live() bool {
	return s.Board.State() == board.On && !s.Board.Core().Dead()
}

// defaultBudget is the step budget of a resume that names none.
const defaultBudget = 2_000_000

// The typed command methods below are the probe's board semantics, one per
// link command. They return nil, ErrTimeout (the core is unreachable) or a
// *RemoteError, and charge no link time: handle charges the wire cost, and
// in-process callers such as the emulated backend charge their own.

// ReadMem reads n bytes of target memory at addr.
func (s *Server) ReadMem(addr uint64, n int) ([]byte, error) {
	if !s.live() {
		return nil, ErrTimeout
	}
	data, err := s.Board.Mem().Read(addr, n)
	if err != nil {
		return nil, remote(CodeMem, err)
	}
	return data, nil
}

// WriteMem writes data into target memory at addr.
func (s *Server) WriteMem(addr uint64, data []byte) error {
	if !s.live() {
		return ErrTimeout
	}
	if err := s.Board.Mem().Write(addr, data); err != nil {
		return remote(CodeMem, err)
	}
	return nil
}

// SetBreakpoint arms a hardware breakpoint at addr.
func (s *Server) SetBreakpoint(addr uint64) error {
	if !s.live() {
		return ErrTimeout
	}
	if err := s.Board.Core().SetBreakpoint(addr); err != nil {
		return remote(CodeBP, err)
	}
	return nil
}

// ClearBreakpoint disarms the breakpoint at addr.
func (s *Server) ClearBreakpoint(addr uint64) error {
	if !s.live() {
		return ErrTimeout
	}
	s.Board.Core().ClearBreakpoint(addr)
	return nil
}

// Continue resumes the target for budget steps (defaultBudget when budget
// is not positive) and returns the stop.
func (s *Server) Continue(budget int64) (cpu.Stop, error) {
	if !s.live() {
		return cpu.Stop{}, ErrTimeout
	}
	if budget <= 0 {
		budget = defaultBudget
	}
	return s.Board.Core().Continue(budget), nil
}

// Reset warm-resets the board.
func (s *Server) Reset() error {
	if err := s.Board.Reset(); err != nil {
		return BootError(err)
	}
	return nil
}

// PowerCycle drops board power, waits for the rails to settle and
// cold-boots. The slow rung of the recovery ladder.
func (s *Server) PowerCycle() error {
	if err := s.Board.PowerCycle(); err != nil {
		return BootError(err)
	}
	return nil
}

// FlashErase erases the flash range [off, off+n). Flash stays reachable in
// every state short of death: that is the point of debug-port restoration.
func (s *Server) FlashErase(off, n int) error {
	if err := s.Board.FlashErase(off, n); err != nil {
		return deadOr(CodeFlash, err)
	}
	return nil
}

// FlashWrite programs data at flash offset off.
func (s *Server) FlashWrite(off int, data []byte) error {
	if err := s.Board.FlashProgram(off, data); err != nil {
		return deadOr(CodeFlash, err)
	}
	return nil
}

// DrainCov is the vectored drain-and-clear: the probe reads the coverage
// header at addr, transfers up to maxEntries valid entries and zeroes the
// count and lost words, so the whole drain costs one adapter round trip
// instead of the legacy read/tail-read/clear triple.
func (s *Server) DrainCov(addr uint64, maxEntries int) ([]uint32, uint32, error) {
	if !s.live() {
		return nil, 0, ErrTimeout
	}
	mem := s.Board.Mem()
	hdr, err := mem.Read(addr, 16)
	if err != nil {
		return nil, 0, remote(CodeMem, err)
	}
	if m := binary.LittleEndian.Uint32(hdr); m != cov.Magic {
		return nil, 0, &RemoteError{Code: CodeCov, Msg: fmt.Sprintf("bad magic %#x", m)}
	}
	count := int(binary.LittleEndian.Uint32(hdr[4:]))
	capacity := int(binary.LittleEndian.Uint32(hdr[8:]))
	lost := binary.LittleEndian.Uint32(hdr[12:])
	if count > capacity {
		return nil, 0, &RemoteError{Code: CodeCov, Msg: fmt.Sprintf("corrupt header count=%d cap=%d", count, capacity)}
	}
	count = min(count, maxEntries)
	entries := make([]uint32, count)
	if count > 0 {
		raw, err := mem.Read(addr+16, count*4)
		if err != nil {
			return nil, 0, remote(CodeMem, err)
		}
		for i := range entries {
			entries[i] = binary.LittleEndian.Uint32(raw[i*4:])
		}
	}
	// Clear count and lost atomically with the read: the target resumes
	// into an empty buffer with no host round trip in between.
	if err := mem.Write(addr+4, []byte{0, 0, 0, 0}); err != nil {
		return nil, 0, remote(CodeMem, err)
	}
	if err := mem.Write(addr+12, []byte{0, 0, 0, 0}); err != nil {
		return nil, 0, remote(CodeMem, err)
	}
	return entries, lost, nil
}

// WriteMemContinue coalesces a mailbox write with the resume that consumes
// it. The two always travel together, so fusing them saves one round trip
// per exec.
func (s *Server) WriteMemContinue(addr uint64, data []byte, budget int64) (cpu.Stop, error) {
	if err := s.WriteMem(addr, data); err != nil {
		return cpu.Stop{}, err
	}
	return s.Continue(budget)
}

// Snapshot captures the board's flash, RAM and breakpoint state as the
// golden image RestoreSnapshot rolls back to, and resets the board's dirty
// tracking. The capture happens probe-side, so the host pays one round
// trip, not a full state read-back.
func (s *Server) Snapshot() error {
	if !s.live() {
		return ErrTimeout
	}
	if err := s.Board.Snapshot(); err != nil {
		return remote(CodeSnap, err)
	}
	return nil
}

// RestoreSnapshot diffs the board's dirty state against the cached golden
// snapshot, re-ships only the delta and replays the target back to its
// snapshot park point. One round trip replaces the
// reset/reflash/re-arm/run-to-main sequence. A missing snapshot earns a bare
// CodeSnap.
func (s *Server) RestoreSnapshot() (board.RestoreStats, error) {
	if s.Board.State() == board.Dead {
		return board.RestoreStats{}, &RemoteError{Code: CodeDead, Msg: "board dead"}
	}
	if !s.Board.HasSnapshot() {
		return board.RestoreStats{}, &RemoteError{Code: CodeSnap}
	}
	st, err := s.Board.RestoreSnapshot()
	switch {
	case err == nil:
		return st, nil
	case errors.Is(err, board.ErrDead):
		return st, remote(CodeDead, err)
	case errors.Is(err, board.ErrNoSnapshot):
		return st, &RemoteError{Code: CodeSnap}
	}
	return st, remote(CodeFlash, err)
}

// DrainUART returns the console lines emitted since the previous drain.
func (s *Server) DrainUART() ([]string, error) {
	lines := s.Board.UART().Drain()
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = l.Text
	}
	return out, nil
}

// BoardState reports power/liveness state, boot count and the last boot
// error message (empty when none).
func (s *Server) BoardState() (board.State, int, string, error) {
	last := ""
	if err := s.Board.LastBootError(); err != nil {
		last = err.Error()
	}
	return s.Board.State(), s.Board.BootCount(), last, nil
}

// cutData splits a <head>:<hexdata> argument and decodes the data.
func cutData(args string) (head string, data []byte, ok bool) {
	head, body, found := strings.Cut(args, ":")
	if !found {
		return "", nil, false
	}
	data, err := hex.DecodeString(body)
	return head, data, err == nil
}

func parseAddrLen(s string) (addr uint64, n int, err error) {
	comma := strings.IndexByte(s, ',')
	if comma < 0 {
		return 0, 0, fmt.Errorf("missing comma")
	}
	addr, err = strconv.ParseUint(s[:comma], 16, 64)
	if err != nil {
		return 0, 0, err
	}
	ln, err := strconv.ParseUint(s[comma+1:], 16, 32)
	if err != nil {
		return 0, 0, err
	}
	return addr, int(ln), nil
}

// encodeStop renders a cpu.Stop as a T-reply:
//
//	T<kind>;<pcHex>[;F<fkind>;<msgHex>;<file|func|line hex triples ','-joined>]
func encodeStop(st cpu.Stop) string {
	var b strings.Builder
	fmt.Fprintf(&b, "T%d;%x", int(st.Kind), st.PC)
	if st.Fault != nil {
		fmt.Fprintf(&b, ";F%d;%s;", int(st.Fault.Kind), hex.EncodeToString([]byte(st.Fault.Msg)))
		for i, fr := range st.Fault.Frames {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s|%s|%d",
				hex.EncodeToString([]byte(fr.File)), hex.EncodeToString([]byte(fr.Func)), fr.Line)
		}
	}
	return b.String()
}

// decodeStop parses a T-reply back into a cpu.Stop.
func decodeStop(s string) (cpu.Stop, error) {
	if !strings.HasPrefix(s, "T") {
		return cpu.Stop{}, fmt.Errorf("ocd: not a stop reply: %q", s)
	}
	fields := strings.Split(s[1:], ";")
	if len(fields) < 2 {
		return cpu.Stop{}, fmt.Errorf("ocd: short stop reply: %q", s)
	}
	kind, err := strconv.Atoi(fields[0])
	if err != nil {
		return cpu.Stop{}, fmt.Errorf("ocd: bad stop kind: %q", s)
	}
	pc, err := strconv.ParseUint(fields[1], 16, 64)
	if err != nil {
		return cpu.Stop{}, fmt.Errorf("ocd: bad stop pc: %q", s)
	}
	st := cpu.Stop{Kind: cpu.StopKind(kind), PC: pc}
	if len(fields) >= 4 && strings.HasPrefix(fields[2], "F") {
		fkind, err := strconv.Atoi(fields[2][1:])
		if err != nil {
			return cpu.Stop{}, fmt.Errorf("ocd: bad fault kind: %q", s)
		}
		msg, err := hex.DecodeString(fields[3])
		if err != nil {
			return cpu.Stop{}, fmt.Errorf("ocd: bad fault msg: %q", s)
		}
		f := &cpu.Fault{Kind: cpu.FaultKind(fkind), PC: pc, Msg: string(msg)}
		if len(fields) >= 5 && fields[4] != "" {
			for _, tr := range strings.Split(fields[4], ",") {
				parts := strings.Split(tr, "|")
				if len(parts) != 3 {
					return cpu.Stop{}, fmt.Errorf("ocd: bad frame: %q", tr)
				}
				file, err1 := hex.DecodeString(parts[0])
				fn, err2 := hex.DecodeString(parts[1])
				line, err3 := strconv.Atoi(parts[2])
				if err1 != nil || err2 != nil || err3 != nil {
					return cpu.Stop{}, fmt.Errorf("ocd: bad frame: %q", tr)
				}
				f.Frames = append(f.Frames, cpu.Frame{File: string(file), Func: string(fn), Line: line})
			}
		}
		st.Fault = f
	}
	return st, nil
}
