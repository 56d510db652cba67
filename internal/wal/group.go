package wal

import (
	"errors"
	"time"
)

// Group commit is the log's only write path: every committer — user
// transactions, degrade batches, replicated batches, restore — hands its
// encoded batch payload to GroupAppend. The first waiter to find no
// flush in flight becomes the leader, collects everything queued, writes
// every batch's frame in one contiguous write and issues ONE fsync, then
// releases each waiter with the durable position after its own batch.
// Batches keep their individual magic/len/CRC framing, so the byte
// stream is indistinguishable from the same batches appended one at a
// time, and tailers (TailRaw) see identical material either way.
//
// The amortization is "natural batching": while the leader's write+fsync
// is in flight, later committers queue behind it and share the next
// fsync.

// groupWaiter is one committer's slot in the group-commit queue.
type groupWaiter struct {
	payload []byte
	// Filled by the leader's flush, then published by setting done under
	// l.gmu (the waiter only reads pos/err after observing done).
	pos  Pos
	err  error
	done bool
	// Timing breakdown, filled by the leader for GroupAppendTimed
	// callers: when this waiter's group started flushing and how long
	// its shared fsync took.
	flushStart time.Time
	fsyncDur   time.Duration
}

// GroupTiming decomposes one GroupAppend ack into its phases: Enqueue
// (queued behind an in-flight flush), Fsync (the shared fsync this
// batch rode), Ack (total wall time of the call).
// Ack - Enqueue - Fsync ≈ the group's buffered write plus wakeup.
type GroupTiming struct {
	Enqueue time.Duration
	Fsync   time.Duration
	Ack     time.Duration
}

// GroupAppend durably appends one commit batch whose record bytes are
// already encoded (an EncodeRecords sequence, or a batch payload read
// verbatim with TailRaw: restore rebuilds a log from archived batches
// without ever opening their sealed payloads), sharing its fsync with
// every other batch queued at flush time. It returns the position
// following the batch once the batch — and every batch ahead of it in
// its group — is durable. Within one session issuing sequential
// GroupAppends the returned positions are strictly monotone; across
// sessions the log interleaves groups in queue order.
//
// A write or sync failure fails every waiter of the group (no partial
// acks: the fsync that would have made any of them durable never
// succeeded) and latches the log broken.
func (l *Log) GroupAppend(payload []byte) (Pos, error) {
	return l.groupAppend(payload, nil)
}

// GroupAppendTimed is GroupAppend, additionally filling tm with the
// ack's phase breakdown — recorded only when the caller asks, so the
// untraced hot path pays nothing.
func (l *Log) GroupAppendTimed(payload []byte, tm *GroupTiming) (Pos, error) {
	return l.groupAppend(payload, tm)
}

func (l *Log) groupAppend(payload []byte, tm *GroupTiming) (Pos, error) {
	if len(payload) == 0 {
		return l.EndPos(), nil
	}
	var t0 time.Time
	if tm != nil {
		t0 = time.Now()
	}
	w := &groupWaiter{payload: payload}
	l.gmu.Lock()
	l.gqueue = append(l.gqueue, w)
	for !w.done && l.gflushing {
		l.gcond.Wait()
	}
	if w.done {
		l.gmu.Unlock()
		fillTiming(tm, t0, w)
		return w.pos, w.err
	}
	// No flush in flight: this waiter leads the group, which is the
	// whole queue.
	l.gflushing = true
	group := l.gqueue
	l.gqueue = nil
	l.gmu.Unlock()

	l.flushGroup(group)
	l.gmu.Lock()
	for _, gw := range group {
		gw.done = true
	}
	l.gflushing = false
	l.gcond.Broadcast()
	l.gmu.Unlock()
	fillTiming(tm, t0, w)
	return w.pos, w.err
}

// fillTiming decomposes a finished waiter's ack for a timed caller.
func fillTiming(tm *GroupTiming, t0 time.Time, w *groupWaiter) {
	if tm == nil {
		return
	}
	tm.Ack = time.Since(t0)
	if !w.flushStart.IsZero() {
		tm.Enqueue = w.flushStart.Sub(t0)
	}
	tm.Fsync = w.fsyncDur
}

// flushGroup appends every waiter's batch under one fsync. It fills
// each waiter's pos/err but does NOT mark done — the caller publishes
// completion under l.gmu.
func (l *Log) flushGroup(ws []*groupWaiter) {
	flushStart := time.Now()
	for _, w := range ws {
		w.flushStart = flushStart
	}
	fail := func(err error) {
		for _, w := range ws {
			w.err = err
		}
	}
	size := 0
	for _, w := range ws {
		size += batchHeaderSize + len(w.payload)
	}
	buf := make([]byte, 0, size)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		fail(errors.New("wal: log closed"))
		return
	}
	if l.broken != nil {
		fail(errors.New("wal: log failed: " + l.broken.Error()))
		return
	}
	off := l.activeSize
	for _, w := range ws {
		buf = appendFrame(buf, w.payload)
		off += int64(batchHeaderSize + len(w.payload))
		w.pos = Pos{Seg: l.activeID, Off: off}
	}
	if _, err := l.active.Write(buf); err != nil {
		l.broken = err
		fail(err)
		return
	}
	if l.opts.Sync {
		start := time.Now()
		if err := l.active.Sync(); err != nil {
			// The write may sit partially on disk (a torn group); refuse
			// all waiters — none of their batches were made durable by a
			// successful fsync — and latch the log.
			l.broken = err
			fail(err)
			return
		}
		l.statFsyncs.Add(1)
		fsyncDur := time.Since(start)
		l.fsyncSeconds.Observe(fsyncDur)
		for _, w := range ws {
			w.fsyncDur = fsyncDur
		}
	}
	l.activeSize += int64(len(buf))
	l.appendedBytes.Add(uint64(len(buf)))
	l.statBatches.Add(uint64(len(ws)))
	l.statGroups.Add(1)
	l.groupSize.Observe(time.Duration(len(ws)) * time.Second)
	l.notifyLocked()
	if l.activeSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			// The group is durable and acked; only the rotation failed.
			// Latch the log so the NEXT append surfaces it loudly.
			l.broken = err
		}
	}
}

// appendFrame appends one batch frame (magic + length + CRC + payload).
func appendFrame(dst, payload []byte) []byte {
	var hdr [batchHeaderSize]byte
	putBatchHeader(hdr[:], payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}
