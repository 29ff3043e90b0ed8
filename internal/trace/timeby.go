package trace

import (
	"fmt"
	"strings"
	"time"

	"github.com/eof-fuzz/eof/internal/vtime"
)

// Category is one bucket of the board-time budget.
type Category uint8

// Board-time categories. Every virtual-clock advance of a campaign lands in
// exactly one of them, so TimeBy sums back to the campaign Duration (per
// shard, in fleet mode) — the invariant the report tests assert.
const (
	// CatExec is target execution: Continue / vRun round trips outside
	// restoration, including the link cost of the resume command itself.
	CatExec Category = iota
	// CatRestore is state restoration: the reboot, breakpoint re-arm and
	// resynchronisation at executor_main (excluding reflash transfers).
	CatRestore
	// CatReflash is full-image reflashing inside a restoration: flash
	// erase and write transfers.
	CatReflash
	// CatLink is pure debug-link overhead: coverage drains, UART drains,
	// mailbox writes, breakpoint arming and every other non-executing
	// round trip, plus retry backoff.
	CatLink
	// CatSync is fleet sync-barrier time: how long a shard's board sat
	// idle at epoch barriers because a sibling's slice ran longer. Always
	// zero in solo mode.
	CatSync
	// CatTriage is crash-triage time: replay, minimization and repro
	// confirmation round trips, including any restores they trigger. Zero
	// unless triage is enabled.
	CatTriage
	// CatConfirm is cross-tier confirmation time: hardware re-execution of
	// emulation-tier findings, including any restores the replays trigger.
	// Zero unless the fleet runs a tiered campaign.
	CatConfirm

	NumCategories
)

var categoryNames = [NumCategories]string{
	"executing", "restoring", "reflashing", "link-overhead", "sync-barrier", "triaging", "confirming",
}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "unknown"
}

// Categories lists every board-time category in display order.
func Categories() []Category {
	return []Category{CatExec, CatRestore, CatReflash, CatLink, CatSync, CatTriage, CatConfirm}
}

// TimeBy is the board-time budget broken down by category — the report field
// behind the paper's restoration-cost argument.
type TimeBy struct {
	Executing    time.Duration
	Restoring    time.Duration
	Reflashing   time.Duration
	LinkOverhead time.Duration
	SyncBarrier  time.Duration
	Triaging     time.Duration
	Confirming   time.Duration

	// RestoringDelta and RestoringFull split Restoring by restore mechanism:
	// delta is the snapshot-restore rung (vRestore shipping only dirty
	// state), full is the classic reset/reflash ladder. They are sub-buckets,
	// not categories — Sum() excludes them, and RestoringDelta +
	// RestoringFull == Restoring whenever all restore time is attributed
	// through Accountant.EndRestore (the report tests assert this).
	RestoringDelta time.Duration
	RestoringFull  time.Duration
}

// Of returns the duration of one category.
func (t TimeBy) Of(c Category) time.Duration {
	switch c {
	case CatExec:
		return t.Executing
	case CatRestore:
		return t.Restoring
	case CatReflash:
		return t.Reflashing
	case CatLink:
		return t.LinkOverhead
	case CatSync:
		return t.SyncBarrier
	case CatTriage:
		return t.Triaging
	case CatConfirm:
		return t.Confirming
	}
	return 0
}

// Add accumulates d into category c.
func (t *TimeBy) Add(c Category, d time.Duration) {
	switch c {
	case CatExec:
		t.Executing += d
	case CatRestore:
		t.Restoring += d
	case CatReflash:
		t.Reflashing += d
	case CatLink:
		t.LinkOverhead += d
	case CatSync:
		t.SyncBarrier += d
	case CatTriage:
		t.Triaging += d
	case CatConfirm:
		t.Confirming += d
	}
}

// Sum returns the total accounted board time.
func (t TimeBy) Sum() time.Duration {
	return t.Executing + t.Restoring + t.Reflashing + t.LinkOverhead + t.SyncBarrier + t.Triaging + t.Confirming
}

// Merge accumulates o into t (fleet report aggregation: the merged TimeBy
// sums shard board time, i.e. Shards x the pool's wall-clock Duration).
func (t *TimeBy) Merge(o TimeBy) {
	t.Executing += o.Executing
	t.Restoring += o.Restoring
	t.Reflashing += o.Reflashing
	t.LinkOverhead += o.LinkOverhead
	t.SyncBarrier += o.SyncBarrier
	t.Triaging += o.Triaging
	t.Confirming += o.Confirming
	t.RestoringDelta += o.RestoringDelta
	t.RestoringFull += o.RestoringFull
}

// Share returns category c's fraction of the accounted total, in [0,1].
func (t TimeBy) Share(c Category) float64 {
	sum := t.Sum()
	if sum <= 0 {
		return 0
	}
	return float64(t.Of(c)) / float64(sum)
}

// String renders a stable "category=duration (share%)" list for logs and
// tables.
func (t TimeBy) String() string {
	var b strings.Builder
	for i, c := range Categories() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v (%.1f%%)", c, t.Of(c).Round(time.Millisecond), 100*t.Share(c))
	}
	return b.String()
}

// Accountant attributes virtual-clock deltas to board-time categories. The
// engine's link timing layer calls Begin/End around every debug-link
// command; because every clock advance of a running campaign happens inside
// some link command (adapter latency, payload transfer, executed cycles,
// retry backoff, injected fault penalties), the accounted total equals the
// campaign Duration exactly.
type Accountant struct {
	clock *vtime.Clock
	by    TimeBy
}

// NewAccountant builds an accountant over clock.
func NewAccountant(clock *vtime.Clock) *Accountant {
	return &Accountant{clock: clock}
}

// Begin returns the current virtual time, to be passed to End.
func (a *Accountant) Begin() time.Duration { return a.clock.Now() }

// End attributes the delta since start to category c.
func (a *Accountant) End(c Category, start time.Duration) {
	a.by.Add(c, a.clock.Now()-start)
}

// EndRestore attributes the delta since start to the restoring category and
// additionally to the delta or full sub-bucket, keeping RestoringDelta +
// RestoringFull == Restoring. Every CatRestore attribution must go through
// here for the sub-bucket invariant to hold.
func (a *Accountant) EndRestore(delta bool, start time.Duration) {
	d := a.clock.Now() - start
	a.by.Restoring += d
	if delta {
		a.by.RestoringDelta += d
	} else {
		a.by.RestoringFull += d
	}
}

// Reset zeroes the accumulated budget (the engine resets after Setup so the
// accounted window matches the report's Duration window).
func (a *Accountant) Reset() { a.by = TimeBy{} }

// Snapshot returns the accumulated breakdown.
func (a *Accountant) Snapshot() TimeBy { return a.by }
