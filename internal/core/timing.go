package core

import (
	"github.com/eof-fuzz/eof/internal/link"
	"github.com/eof-fuzz/eof/internal/trace"
)

// timeCmd is the board-time accounting layer. It sits at the very top of
// the debug-link stack (above the session layer, so retry backoff and fault
// penalties are included) and attributes every command's virtual-clock
// delta to a board-time category. Defaults: resume commands are target
// execution, flash transfers are reflashing, resets and snapshot restores
// are restoration, and everything else is link overhead. While the engine
// is inside a restoration its mode flags coerce non-reflash commands to the
// restoring category, so restoration's reboot/re-arm/resync round trips are
// charged to restoration as the paper accounts them. The triage flag
// outranks everything: during replay/minimization every round trip —
// including restores and reflashes the replays themselves trigger — is
// billed to triage, keeping the bucket an honest total cost of triage. The
// cross-tier confirmation flag works the same way for the confirming
// bucket.
func (e *Engine) timeCmd(c link.Cmd, call func() error) error {
	start := e.acct.Begin()
	err := call()
	var def trace.Category
	switch c.Op {
	case link.OpFlashErase, link.OpFlashWrite:
		e.acct.End(e.flashCat(), start)
		return err
	case link.OpContinue, link.OpWriteMemContinue:
		def = trace.CatExec
	case link.OpReset, link.OpPowerCycle, link.OpRestoreSnapshot:
		def = trace.CatRestore
	default:
		def = trace.CatLink
	}
	// Restore-category time charged while the snapshot rung runs lands in
	// the restoring-delta sub-bucket, the rest in restoring-full, keeping
	// Restoring == Delta + Full exact.
	if cat := e.cmdCat(def); cat == trace.CatRestore {
		e.acct.EndRestore(e.deltaRestoring, start)
	} else {
		e.acct.End(cat, start)
	}
	return err
}

// cmdCat resolves the category for a command whose default is def.
func (e *Engine) cmdCat(def trace.Category) trace.Category {
	switch {
	case e.triaging:
		return trace.CatTriage
	case e.confirming:
		return trace.CatConfirm
	case e.reflashing:
		return trace.CatReflash
	case e.restoring:
		return trace.CatRestore
	}
	return def
}

// flashCat is the category for flash transfers: reflashing, unless the
// reflash happens while replaying a finding, in which case it is triage
// (or confirmation) cost.
func (e *Engine) flashCat() trace.Category {
	switch {
	case e.triaging:
		return trace.CatTriage
	case e.confirming:
		return trace.CatConfirm
	}
	return trace.CatReflash
}
