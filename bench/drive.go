package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"instantdb"
	"instantdb/client"
)

// reply is what a statement returned, reduced to what the checks need,
// so embedded and remote results compare alike.
type reply struct {
	rows     int
	first    []instantdb.Value
	affected int
}

func newReply(affected int, data [][]instantdb.Value) reply {
	r := reply{rows: len(data), affected: affected}
	if len(data) > 0 {
		r.first = data[0]
	}
	return r
}

func clientReply(res *client.Result, err error) (reply, error) {
	if err != nil {
		return reply{}, err
	}
	if res.Rows == nil {
		return newReply(res.RowsAffected, nil), nil
	}
	return newReply(res.RowsAffected, res.Rows.Data), nil
}

func embeddedReply(res *instantdb.Result, err error) (reply, error) {
	if err != nil {
		return reply{}, err
	}
	if res.Rows == nil {
		return newReply(res.RowsAffected, nil), nil
	}
	return newReply(res.RowsAffected, res.Rows.Data), nil
}

// expectations holds, per scan kind and argument, the row count the
// reference database returned at set-up. nil means only errors fail.
type expectations map[opKind]map[string]int

// check decides whether an op's reply is the right one.
func (e expectations) check(o *op, r reply, err error) bool {
	if err != nil {
		return false
	}
	switch o.kind {
	case opInsert:
		return r.affected == 1
	case opPoint:
		return r.rows == 1 && r.first[0].Int() == o.id && r.first[1].Text() == o.want
	case opProbeFull:
		return r.rows == 0
	default:
		if e == nil {
			return true
		}
		return r.rows == e[o.kind][o.want]
	}
}

// executor runs one op against the system and reports whether the
// reply was correct.
type executor interface {
	do(o *op) bool
}

// sendExec runs single-statement ops through a send function: prepared
// statements on a client connection, text statements, traced
// statements or an embedded session.
type sendExec struct {
	send   func(o *op) (reply, error)
	expect expectations
	// wrong counts replies that arrived without an error but were not
	// the right answer; the oracle fails the run on any.
	wrong int
	// dropEvery, when set, acknowledges every n-th insert without
	// sending it (the lose-insert fault: the count oracle must notice).
	dropEvery int
	inserts   int
}

func (x *sendExec) do(o *op) bool {
	if o.kind == opInsert && x.dropEvery > 0 {
		if x.inserts++; x.inserts%x.dropEvery == 0 {
			return true
		}
	}
	r, err := x.send(o)
	ok := x.expect.check(o, r, err)
	if err == nil && !ok {
		x.wrong++
	}
	return ok
}

// preparedSend prepares every kind in kinds on conn and returns a send
// function executing them.
func preparedSend(conn *client.Conn, kinds []opKind) (func(o *op) (reply, error), error) {
	var stmts [numKinds]*client.Stmt
	for _, k := range kinds {
		st, err := conn.Prepare(bg, stmtSQL[k])
		if err != nil {
			return nil, err
		}
		stmts[k] = st
	}
	return func(o *op) (reply, error) {
		return clientReply(stmts[o.kind].Exec(bg, o.args...))
	}, nil
}

// textSend sends statement text plus arguments in one frame: the
// untraced twin of tracedSend, so the two differ by tracing alone.
func textSend(conn *client.Conn) func(o *op) (reply, error) {
	return func(o *op) (reply, error) {
		return clientReply(conn.Exec(bg, stmtSQL[o.kind], o.args...))
	}
}

// embeddedSend prepares kinds on an embedded session.
func embeddedSend(db *instantdb.DB, kinds []opKind) (func(o *op) (reply, error), error) {
	conn := db.NewConn()
	var stmts [numKinds]*instantdb.Stmt
	for _, k := range kinds {
		st, err := conn.Prepare(stmtSQL[k])
		if err != nil {
			return nil, err
		}
		stmts[k] = st
	}
	return func(o *op) (reply, error) {
		return embeddedReply(stmts[o.kind].Exec(o.args...))
	}, nil
}

// rec is one executed (or dropped) operation. Times are nanoseconds
// since the run origin; due is the intended send time on an open loop
// and equals start on a closed one.
type rec struct {
	due, start, end int64
	bytes           int32 // user bytes of an insert
	kind            opKind
	ok              bool
}

func since(origin time.Time) int64 { return int64(time.Since(origin)) }

// closedLoop sends the stream's ops back to back until the deadline
// (ns since origin) passes, then returns what it recorded.
func closedLoop(s *stream, ex executor, origin time.Time, deadline int64, recs []rec) []rec {
	for since(origin) < deadline {
		// An op is emitted only if it is sent: a later read may ask for
		// any insert the stream has emitted.
		o := s.emit()
		start := since(origin)
		ok := ex.do(&o)
		recs = append(recs, rec{due: start, start: start, end: since(origin), bytes: o.bytes, kind: o.kind, ok: ok})
	}
	return recs
}

// loadgenStats describes how well an open-loop generator kept its
// schedule.
type loadgenStats struct {
	late       hist  // send time − the moment the op could first go out
	backlogMax int64 // most ops due but unsent on the connection
	dropped    int
}

// backlogCap is the per-connection backlog above which an open-loop op
// is dropped (and counted failed) instead of sent: two seconds of
// schedule at 1 000 ops/s. Without a cap a stalled server would make
// the run overshoot its time budget.
const backlogCap = 2000

// spinLead is how long before an op is due the open loop stops sleeping
// and starts yielding in a loop. time.Sleep cannot be used for the
// whole wait: the Go scheduler parks in epoll_wait, whose timeout is in
// whole milliseconds, so a sub-millisecond sleep overshoots by ~400 µs
// — more than a point read takes. nanosleep overshoots by ~90 µs on
// this box; the yield loop covers that and fires within a few µs.
const spinLead = 200 * time.Microsecond

// waitUntil returns once due (ns since origin) has passed, and the time
// it returned at.
func waitUntil(origin time.Time, due int64) int64 {
	now := since(origin)
	if d := due - now - int64(spinLead); d > 0 {
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early return is covered by the loop below
	}
	for now = since(origin); now < due; now = since(origin) {
		runtime.Gosched()
	}
	return now
}

// openLoop sends op i at first + i×interval (ns since origin) whether
// or not the previous reply has arrived in time: a late reply delays
// the next send, and the delay is charged to that op because latency
// counts from due, not from start.
func openLoop(s *stream, ex executor, origin time.Time, first, interval, deadline int64, recs []rec, lg *loadgenStats) []rec {
	prevEnd := int64(0)
	for due := first; due < deadline; due += interval {
		o := s.emit()
		now := waitUntil(origin, due)
		lg.late.add(now - max(due, prevEnd))
		backlog := (now - due) / interval
		lg.backlogMax = max(lg.backlogMax, backlog)
		if backlog > backlogCap {
			lg.dropped++
			recs = append(recs, rec{due: due, start: now, end: now, kind: o.kind})
			continue
		}
		ok := ex.do(&o)
		prevEnd = since(origin)
		recs = append(recs, rec{due: due, start: now, end: prevEnd, bytes: o.bytes, kind: o.kind, ok: ok})
	}
	return recs
}

// winStat is one measurement window.
type winStat struct {
	seconds    float64
	ok, failed int
	done       int // ok ops completed inside the window: the throughput numerator
	all        hist
	byKind     [numKinds]*hist
}

func (w *winStat) add(r rec) {
	if !r.ok {
		w.failed++
		return
	}
	w.ok++
	lat := r.end - r.due
	w.all.add(lat)
	if w.byKind[r.kind] == nil {
		w.byKind[r.kind] = &hist{}
	}
	w.byKind[r.kind].add(lat)
}

// cutWindows splits the measured phase [t0, t0+n×width) into n windows.
//
// Throughput: an op counts toward the window it completes in, and
// window edges are moved to the first completion at or after each
// nominal edge, so a window's length is the time its own ops took. With
// one caller that is exact however few ops a window holds (reopen_cycle
// completes one or two per window); with two it is off by at most one
// op in thousands.
//
// Latency: on a closed loop an op's latency belongs to the window it
// completes in; on an open loop to the window its due time falls in.
func cutWindows(recs []rec, t0, width int64, n int, open bool) []winStat {
	ws := make([]winStat, n)
	// recs of one connection are in completion order; merge by end.
	sortRecsByEnd(recs)
	edge := int64(-1) // end of the op that closed the previous window
	k := -1           // window being filled; -1 until the opening edge
	for _, r := range recs {
		if open {
			if d := (r.due - t0) / width; r.due >= t0 && d < int64(n) {
				ws[d].add(r)
			}
		}
		if r.end < t0 {
			continue
		}
		if k >= 0 && k < n {
			if !open {
				ws[k].add(r)
			}
			if r.ok {
				ws[k].done++
			}
		}
		for k < n && r.end >= t0+int64(k+1)*width {
			if k >= 0 {
				ws[k].seconds = float64(r.end-edge) / 1e9
			}
			edge = r.end
			k++
		}
	}
	return ws
}

// summary is a per-window quantity reduced over the windows.
type summary struct{ median, min, max float64 }

func summarize(ws []winStat, f func(w *winStat) (float64, bool)) summary {
	var xs []float64
	for i := range ws {
		if x, ok := f(&ws[i]); ok {
			xs = append(xs, x)
		}
	}
	lo, hi := minMax(xs)
	return summary{median: median(xs), min: lo, max: hi}
}

func opsPerSec(w *winStat) (float64, bool) {
	if w.seconds <= 0 {
		return 0, false
	}
	return float64(w.done) / w.seconds, true
}

// typicalLatency is a window's lat_p50_ms: the median latency of each
// op type, averaged with the types' shares of the window's ops as
// weights. A pooled median is not used because on a half-insert,
// half-read mix it falls in the gap between the two types' latencies,
// where it swings between them from window to window; each type's own
// median is well defined, and with one type this is the plain median.
func typicalLatency(w *winStat) (float64, bool) {
	var sum float64
	for _, h := range w.byKind {
		if h != nil {
			sum += float64(h.count()) * h.quantile(0.5)
		}
	}
	if w.ok == 0 {
		return 0, false
	}
	return sum / float64(w.ok) / 1e6, true
}

// latQuantile returns a window reducer giving the q-quantile in ms over
// the given kinds (none = all kinds).
func latQuantile(q float64, kinds ...opKind) func(w *winStat) (float64, bool) {
	return func(w *winStat) (float64, bool) {
		h := &w.all
		if len(kinds) > 0 {
			h = &hist{}
			for _, k := range kinds {
				h.merge(w.byKind[k])
			}
		}
		if h.count() == 0 {
			return 0, false
		}
		return h.quantile(q) / 1e6, true
	}
}

func sortRecsByEnd(recs []rec) {
	sort.Slice(recs, func(a, b int) bool { return recs[a].end < recs[b].end })
}
