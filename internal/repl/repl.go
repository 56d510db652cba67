// Package repl implements InstantDB's WAL-shipping replication: a
// leader streams committed WAL batches to read replicas over the wire
// protocol, and each replica applies them through its own durable
// commit path while running its own degradation clock.
//
// Topology and guarantees:
//
//   - The leader side (Sender) tails the leader's wal.Log by position
//     (segment, offset), unseals each committed batch with the leader's
//     codec, and ships the records in plain form, preceded by the
//     leader's full catalog DDL script and interleaved with heartbeats
//     carrying the log end position.
//   - The follower side (Follower) maintains the connection — dial,
//     handshake, apply loop, reconnect with backoff — and applies each
//     batch via engine.DB.ApplyReplicated, which re-logs it in the
//     follower's OWN WAL (sealed under the follower's own epoch keys)
//     together with a RecReplMark carrying the resume position, so
//     crash recovery resumes tailing exactly at the last durable batch.
//   - The degradation-critical rule: replication NEVER carries the
//     authority to degrade. A replica's degrade engine runs against the
//     replica's own clock, so LCP transitions, scrubs and tuple
//     deletions fire at their deadlines even while the leader is
//     partitioned away. Leader-originated degrade batches and locally
//     fired transitions reconcile idempotently because transitions are
//     monotone down the generalization tree (storage.StateAdvances):
//     whichever clock fires first wins and the late copy is a no-op.
package repl

import (
	"errors"
	"fmt"
	"net"
	"time"

	"instantdb/internal/wal"
	"instantdb/internal/wire"
)

// DefaultHeartbeat is the idle-stream heartbeat interval when
// Sender.Heartbeat is zero.
const DefaultHeartbeat = time.Second

// Sender streams a leader's WAL to one follower connection. The server
// creates one per replication handshake; Serve runs on the connection's
// goroutine until the peer disconnects or the log position becomes
// unavailable.
type Sender struct {
	// Log is the leader's WAL.
	Log *wal.Log
	// Schema is the leader's catalog DDL script, shipped first so the
	// follower can apply missing DDL before any batch references it.
	Schema string
	// Heartbeat is the idle keepalive interval (default
	// DefaultHeartbeat). Heartbeats double as dead-peer detection: a
	// vanished follower fails the next write.
	Heartbeat time.Duration
	// Logf receives stream diagnostics when non-nil.
	Logf func(format string, args ...any)
}

func (s *Sender) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Serve streams batches starting at start until the connection dies.
// The caller owns nc and closes it afterwards. Positions that no longer
// exist are reported to the peer as a fatal CodeReplUnavailable error.
func (s *Sender) Serve(nc net.Conn, start wal.Pos) error {
	hb := s.Heartbeat
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	if err := wire.WriteFrame(nc, wire.OpReplSchema, []byte(s.Schema)); err != nil {
		return err
	}
	pos := start
	codec := s.Log.Codec()
	timer := time.NewTimer(hb)
	defer timer.Stop()
	for {
		// Grab the notifier BEFORE capturing the end, so an append racing
		// the tail wakes us instead of being missed.
		notify := s.Log.AppendNotify()
		end := s.Log.EndPos()
		err := s.tail(nc, &pos, end, codec)
		if errors.Is(err, wal.ErrPosGone) {
			wire.WriteFrame(nc, wire.OpError, //nolint:errcheck // peer may be gone
				wire.EncodeError(wire.CodeReplUnavailable, err.Error()))
		}
		if err != nil {
			return err
		}
		// Caught up with end: wait for an append (notify is already
		// closed if one landed during the tail) or send a heartbeat.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(hb)
		select {
		case <-notify:
		case <-timer.C:
			end := s.Log.EndPos()
			beat := wire.EncodeReplHeartbeat(wire.ReplHeartbeat{
				EndSeg: uint64(end.Seg), EndOff: uint64(end.Off)})
			if err := wire.WriteFrame(nc, wire.OpReplHeartbeat, beat); err != nil {
				return err
			}
		}
	}
}

// tail ships every batch in [*pos, end) and advances *pos past each
// one it sent. A position past the log's end is not a position of this
// log, and is reported as wal.ErrPosGone like any other.
func (s *Sender) tail(nc net.Conn, pos *wal.Pos, end wal.Pos, codec wal.Codec) error {
	if end.Before(*pos) {
		return fmt.Errorf("%w: position %v is past the log end %v", wal.ErrPosGone, *pos, end)
	}
	return s.Log.TailRaw(*pos, end, func(payload []byte, next wal.Pos) error {
		recs, err := wal.DecodeRecords(payload, codec)
		if err != nil {
			return fmt.Errorf("repl: decode batch at %v: %w", *pos, err)
		}
		frame, err := encodeBatch(recs, next)
		if err != nil {
			return fmt.Errorf("repl: encode batch at %v: %w", *pos, err)
		}
		if err := wire.WriteFrame(nc, wire.OpReplBatch, frame); err != nil {
			return err
		}
		*pos = next
		return nil
	})
}

// encodeBatch builds an OpReplBatch payload: records in plain form
// (the leader's codec already unsealed them in tail), minus any
// RecReplMark records a chained replica's log would carry — they
// address the upstream leader's log, not this one's.
func encodeBatch(recs []*wal.Record, next wal.Pos) ([]byte, error) {
	ship := recs[:0:0]
	for _, r := range recs {
		if r.Type != wal.RecReplMark {
			ship = append(ship, r)
		}
	}
	records, err := wal.EncodeRecords(nil, ship, wal.PlainCodec{})
	if err != nil {
		return nil, err
	}
	return wire.EncodeReplBatch(wire.ReplBatch{
		NextSeg: uint64(next.Seg), NextOff: uint64(next.Off), Records: records,
	}), nil
}
