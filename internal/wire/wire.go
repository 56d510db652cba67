// Package wire defines the length-prefixed binary protocol spoken
// between the InstantDB network server (internal/server) and the Go
// client (client). Every frame is
//
//	uint32 big-endian length | 1 byte opcode | payload
//
// where length counts the opcode byte plus the payload. The first frame
// on a connection must be a Hello carrying the protocol magic, version,
// and the session purpose; the server answers Welcome or Error and the
// connection then alternates request/response frames. Typed result rows
// reuse the storage codec of internal/value, so a remote client decodes
// exactly the values an embedded engine.Conn would observe.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"instantdb/internal/value"
)

// Magic opens every Hello payload; it doubles as a fast reject of
// clients speaking the wrong protocol (e.g. HTTP).
const Magic uint32 = 0x49444201 // "IDB\x01"

// Version is the protocol version this package implements. The server
// refuses handshakes with a different version. Version 6 ships
// replication batches in the WAL's column-wise runs (wal format 4);
// version 5 shipped them with stable rows written row by row. Version 5
// added a flags byte to the Exec payload, whose one bit (Exec.Partial)
// asks for a SELECT's partial form; version 4 had none. Since version 4
// a prepared statement is a client handle that sends OpExec with
// arguments; version 3 also had a per-session statement registry. Since
// version 3 every statement is one OpExec frame (Exec payload: trace
// identity, text, arguments); version 2 had a request opcode per
// statement kind and a trace wrapper. Since version 2 every value —
// result rows, statement arguments, replication payloads — travels in
// the storage codec with INTs as varints; version 1 carried them as 8
// fixed bytes.
const Version uint16 = 6

// MaxFrameDefault bounds frame payloads unless overridden: large enough
// for sizeable result sets, small enough that a hostile length prefix
// cannot balloon server memory.
const MaxFrameDefault = 4 << 20

// Request opcodes (client → server).
const (
	// OpHello is the handshake frame (EncodeHello payload).
	OpHello byte = 0x01
	// OpExec executes one SQL statement, with its arguments and, when
	// traced, the caller's trace identity (EncodeExec payload). It is the
	// only statement request: transaction control and SET PURPOSE travel
	// as their SQL text. The response is OpResult.
	OpExec byte = 0x02
	// OpPing is a liveness probe; the server answers OpPong.
	OpPing byte = 0x08
	// OpBackup requests a streamed backup archive (EncodeBackupReq
	// payload: full, or incremental from a log position). The server
	// answers a sequence of OpBackupChunk frames carrying the raw
	// archive bytes, terminated by OpBackupDone — or by a non-fatal
	// OpError, after which the session continues but any bytes already
	// received must be discarded as an incomplete archive.
	OpBackup byte = 0x0E
	// OpStats requests a metrics snapshot (empty payload); the server
	// answers OpStatsReply with every metric sample flattened to
	// key→value. Shipping stats over the existing protocol keeps the
	// wire the single trust boundary — no side-channel HTTP needed to
	// verify degradation lag.
	OpStats byte = 0x0F
	// OpReplHello converts the connection into a replication stream
	// (EncodeReplHello payload: start position + last applied epoch).
	// It replaces OpHello as the first frame; the server answers with an
	// OpReplSchema frame and then streams OpReplBatch/OpReplHeartbeat
	// frames until either side closes. The follower sends nothing more.
	OpReplHello byte = 0x10
	// OpShardCheck pins the routing-table version a shard router is about
	// to serve this shard under (EncodeShardCheck payload). The server
	// persists the highest version it has seen and answers
	// OpShardCheckReply with the previously stored version; presenting a
	// version OLDER than the stored one draws a fatal CodeShardStale
	// error — a router restarted with a stale routing table fails loud
	// instead of silently misrouting keys. A deliberate new opcode rather
	// than a Hello field: old servers reject unknown opcodes with
	// CodeProtocol, so a new router against an unsharded server also
	// fails loud.
	OpShardCheck byte = 0x11
	// OpKeyExport streams the server's epoch key store (empty payload) as
	// a sequence of OpBackupChunk frames terminated by OpBackupDone. A
	// shard bootstrap needs the source's live epoch keys to restore its
	// backup with payloads intact; keys already shredded at export time
	// are gone from the stream, so expired material restores as erased.
	// The stream carries raw key material — the same trust level the
	// replication stream already operates at.
	OpKeyExport byte = 0x12
	// OpSchema requests the server's full catalog DDL script (empty
	// payload); the server answers OpSchemaReply. The shard router uses
	// it to mirror table shapes (primary keys, columns) for routing.
	OpSchema byte = 0x13
)

// Retired request opcodes, never to be reused: 0x03 (query), 0x04 (set
// purpose), 0x05–0x07 (begin, commit, rollback), 0x0C (exec with
// arguments), 0x0D (begin read-only) and 0x14 (trace wrapper) were
// statement requests of protocol version 2 that OpExec replaced; 0x09
// (prepare), 0x0A (execute prepared) and 0x0B (close statement) drove the
// per-session statement registry of protocol version 3. A server answers
// each with CodeProtocol, as it does any unknown opcode. Retired with
// them, and likewise never reused: the response opcode 0x83 (statement
// ready) and the error code 7 (unknown prepared statement).

// Response opcodes (server → client).
const (
	// OpWelcome acknowledges the handshake; payload is the server's
	// protocol version (uint16).
	OpWelcome byte = 0x80
	// OpError reports a failure (EncodeError payload).
	OpError byte = 0x81
	// OpResult carries a statement outcome (EncodeResult payload).
	OpResult byte = 0x82
	// OpStatsReply answers OpStats (EncodeStats payload: a sorted list
	// of metric samples).
	OpStatsReply byte = 0x84
	// OpShardCheckReply answers OpShardCheck (EncodeShardCheckReply
	// payload: the routing-table version the shard had stored before this
	// check).
	OpShardCheckReply byte = 0x85
	// OpSchemaReply answers OpSchema; the payload is the raw catalog DDL
	// script (the same append-only script replication streams ship).
	OpSchemaReply byte = 0x86
	// OpPong answers OpPing.
	OpPong byte = 0x88
	// OpReplBatch carries one replicated commit batch (EncodeReplBatch
	// payload: the position after the batch in the leader's log, then
	// the records in the wal plain-record codec).
	OpReplBatch byte = 0x90
	// OpReplHeartbeat keeps an idle replication stream alive and carries
	// the leader's current log end position (EncodeReplHeartbeat), so a
	// follower can measure its lag and detect a dead leader.
	OpReplHeartbeat byte = 0x91
	// OpReplSchema opens a replication stream: the payload is the
	// leader's full catalog DDL script. The follower executes the
	// statements it has not applied yet (the script is append-only and
	// both sides apply it in order), then applies batches.
	OpReplSchema byte = 0x92
	// OpBackupChunk carries one chunk of raw backup-archive bytes; the
	// concatenation of all chunks is the archive stream.
	OpBackupChunk byte = 0x93
	// OpBackupDone terminates a backup stream (EncodeBackupDone
	// payload: the source log end position and tuple/batch counts).
	OpBackupDone byte = 0x94
)

// Error codes carried by OpError frames.
const (
	// CodeSQL is a statement-level failure (parse error, purpose denial,
	// duplicate key, lock timeout, ...). The connection stays usable.
	CodeSQL uint16 = 1
	// CodeProtocol is a framing violation (bad magic, bad version,
	// unknown opcode, truncated payload). The server closes the
	// connection after sending it.
	CodeProtocol uint16 = 2
	// CodeUnknownPurpose rejects a handshake or SET PURPOSE naming an
	// undeclared purpose.
	CodeUnknownPurpose uint16 = 3
	// CodeFrameTooLarge rejects a frame whose length prefix exceeds the
	// negotiated maximum. Fatal.
	CodeFrameTooLarge uint16 = 4
	// CodeServerBusy rejects a connection over the server's -max-conns
	// limit.
	CodeServerBusy uint16 = 5
	// CodeShutdown reports that the server is draining connections.
	CodeShutdown uint16 = 6
	// CodeReadOnlyReplica rejects a write statement (or a read-write
	// BEGIN, or DDL) on a server running as a read replica. Non-fatal:
	// the session stays usable for reads; direct writes to the leader.
	CodeReadOnlyReplica uint16 = 8
	// CodeReplUnavailable rejects a replication handshake the server
	// cannot serve: replication is unsupported on this database
	// (ephemeral, or vacuum log mode), or the requested log position no
	// longer exists (checkpointed away) so the follower must be reseeded
	// from a storage copy. Fatal.
	CodeReplUnavailable uint16 = 9
	// CodeShardStale rejects an OpShardCheck presenting a routing-table
	// version older than the one this shard has already served under. A
	// router holding a stale table must reload it, not route with it.
	// Fatal.
	CodeShardStale uint16 = 10
)

// ErrFrameTooLarge is returned by ReadFrame when the length prefix
// exceeds the caller's limit, and matched (via errors.Is) by
// server-reported CodeFrameTooLarge errors.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// Sentinel errors matched by server-reported *Error values via
// errors.Is, one per error code, so callers branch on the condition
// instead of string-matching messages. The client package re-exports
// them.
var (
	// ErrUnknownPurpose matches CodeUnknownPurpose (handshake or SET
	// PURPOSE naming an undeclared purpose).
	ErrUnknownPurpose = errors.New("wire: unknown purpose")
	// ErrServerBusy matches CodeServerBusy (connection limit reached).
	ErrServerBusy = errors.New("wire: server busy")
	// ErrShuttingDown matches CodeShutdown (server draining).
	ErrShuttingDown = errors.New("wire: server shutting down")
	// ErrProtocol matches CodeProtocol (framing violation).
	ErrProtocol = errors.New("wire: protocol violation")
	// ErrReadOnlyReplica matches CodeReadOnlyReplica (write refused on a
	// read replica).
	ErrReadOnlyReplica = errors.New("wire: server is a read-only replica")
	// ErrReplUnavailable matches CodeReplUnavailable (replication
	// unsupported here, or the requested position was checkpointed away).
	ErrReplUnavailable = errors.New("wire: replication unavailable")
	// ErrShardStale matches CodeShardStale (router presented a
	// routing-table version older than the shard has already seen).
	ErrShardStale = errors.New("wire: routing table stale")
)

// WriteFrame writes one frame as a single Write call, so concurrent
// writers on distinct frames never interleave bytes.
func WriteFrame(w io.Writer, op byte, payload []byte) error {
	buf := make([]byte, 4+1+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(1+len(payload)))
	buf[4] = op
	copy(buf[5:], payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame, enforcing the size limit before allocating.
func ReadFrame(r io.Reader, maxPayload int) (op byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("wire: empty frame")
	}
	if int64(n) > int64(maxPayload)+1 {
		return 0, nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n-1, maxPayload)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame: %w", err)
	}
	return buf[0], buf[1:], nil
}

// Hello is the handshake payload.
type Hello struct {
	Version uint16
	// Purpose is the initial session purpose ("" keeps the server's
	// default full-accuracy purpose).
	Purpose string
	// Coarse enables the paper's §IV best-effort projection semantics
	// for the session.
	Coarse bool
}

// EncodeHello serializes a handshake payload.
func EncodeHello(h Hello) []byte {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, Magic)
	b = binary.BigEndian.AppendUint16(b, h.Version)
	var flags byte
	if h.Coarse {
		flags |= 1
	}
	b = append(b, flags)
	return appendString(b, h.Purpose)
}

// DecodeHello parses a handshake payload, validating the magic.
func DecodeHello(p []byte) (Hello, error) {
	if len(p) < 7 {
		return Hello{}, fmt.Errorf("wire: short hello (%d bytes)", len(p))
	}
	if m := binary.BigEndian.Uint32(p); m != Magic {
		return Hello{}, fmt.Errorf("wire: bad magic 0x%08x", m)
	}
	h := Hello{Version: binary.BigEndian.Uint16(p[4:]), Coarse: p[6]&1 != 0}
	purpose, _, err := readString(p[7:])
	if err != nil {
		return Hello{}, fmt.Errorf("wire: hello purpose: %w", err)
	}
	h.Purpose = purpose
	return h, nil
}

// EncodeWelcome serializes the handshake acknowledgement.
func EncodeWelcome() []byte {
	return binary.BigEndian.AppendUint16(nil, Version)
}

// DecodeWelcome parses the handshake acknowledgement.
func DecodeWelcome(p []byte) (version uint16, err error) {
	if len(p) < 2 {
		return 0, fmt.Errorf("wire: short welcome")
	}
	return binary.BigEndian.Uint16(p), nil
}

// Error is a wire-level failure report.
type Error struct {
	Code uint16
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Msg }

// Fatal reports whether the server closes the connection after this
// error.
func (e *Error) Fatal() bool {
	return e.Code == CodeProtocol || e.Code == CodeFrameTooLarge ||
		e.Code == CodeServerBusy || e.Code == CodeShutdown ||
		e.Code == CodeReplUnavailable || e.Code == CodeShardStale
}

// Is maps the error code onto the package's sentinel errors, so
// errors.Is(err, ErrServerBusy) works on any server-reported failure.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrUnknownPurpose:
		return e.Code == CodeUnknownPurpose
	case ErrServerBusy:
		return e.Code == CodeServerBusy
	case ErrShuttingDown:
		return e.Code == CodeShutdown
	case ErrProtocol:
		return e.Code == CodeProtocol
	case ErrFrameTooLarge:
		return e.Code == CodeFrameTooLarge
	case ErrReadOnlyReplica:
		return e.Code == CodeReadOnlyReplica
	case ErrReplUnavailable:
		return e.Code == CodeReplUnavailable
	case ErrShardStale:
		return e.Code == CodeShardStale
	}
	return false
}

// EncodeError serializes an OpError payload.
func EncodeError(code uint16, msg string) []byte {
	b := binary.BigEndian.AppendUint16(nil, code)
	return appendString(b, msg)
}

// DecodeError parses an OpError payload.
func DecodeError(p []byte) (*Error, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("wire: short error frame")
	}
	msg, _, err := readString(p[2:])
	if err != nil {
		return nil, fmt.Errorf("wire: error message: %w", err)
	}
	return &Error{Code: binary.BigEndian.Uint16(p), Msg: msg}, nil
}

// Rows is a materialized query result crossing the wire.
type Rows struct {
	Columns []string
	Data    [][]value.Value
}

// Result is a statement outcome crossing the wire.
type Result struct {
	RowsAffected uint64
	LastInsertID uint64
	// Rows is non-nil for SELECT.
	Rows *Rows
}

// EncodeResult serializes an OpResult payload: two uvarints, a has-rows
// flag, then (column names, row count, EncodeRow-encoded rows).
func EncodeResult(r *Result) []byte {
	b := binary.AppendUvarint(nil, r.RowsAffected)
	b = binary.AppendUvarint(b, r.LastInsertID)
	if r.Rows == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendUvarint(b, uint64(len(r.Rows.Columns)))
	for _, c := range r.Rows.Columns {
		b = appendString(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Rows.Data)))
	for _, row := range r.Rows.Data {
		b = value.EncodeRow(b, row)
	}
	return b
}

// DecodeResult parses an OpResult payload.
func DecodeResult(p []byte) (*Result, error) {
	r := &Result{}
	affected, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, fmt.Errorf("wire: result rows-affected")
	}
	p = p[n:]
	last, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, fmt.Errorf("wire: result last-insert-id")
	}
	p = p[n:]
	r.RowsAffected, r.LastInsertID = affected, last
	if len(p) < 1 {
		return nil, fmt.Errorf("wire: result missing rows flag")
	}
	hasRows := p[0] == 1
	p = p[1:]
	if !hasRows {
		return r, nil
	}
	ncols, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, fmt.Errorf("wire: result column count")
	}
	p = p[n:]
	// Every encoded column needs at least one byte, so a count beyond the
	// remaining payload is corrupt; checking before make() keeps a hostile
	// count from forcing a huge allocation.
	if ncols > uint64(len(p)) {
		return nil, fmt.Errorf("wire: result claims %d columns in %d bytes", ncols, len(p))
	}
	rows := &Rows{Columns: make([]string, 0, ncols)}
	for i := uint64(0); i < ncols; i++ {
		name, used, err := readString(p)
		if err != nil {
			return nil, fmt.Errorf("wire: result column %d: %w", i, err)
		}
		rows.Columns = append(rows.Columns, name)
		p = p[used:]
	}
	nrows, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, fmt.Errorf("wire: result row count")
	}
	p = p[n:]
	if nrows > uint64(len(p)) {
		return nil, fmt.Errorf("wire: result claims %d rows in %d bytes", nrows, len(p))
	}
	rows.Data = make([][]value.Value, 0, nrows)
	for i := uint64(0); i < nrows; i++ {
		row, used, err := value.DecodeRow(p)
		if err != nil {
			return nil, fmt.Errorf("wire: result row %d: %w", i, err)
		}
		// Consumers index rows by column position; a width mismatch must
		// be a protocol error here, not an index panic there.
		if uint64(len(row)) != ncols {
			return nil, fmt.Errorf("wire: result row %d has %d fields, want %d", i, len(row), ncols)
		}
		rows.Data = append(rows.Data, row)
		p = p[used:]
	}
	r.Rows = rows
	return r, nil
}

// Exec is the OpExec payload: one statement, its arguments, how it is
// answered, and the trace it joins.
type Exec struct {
	// TraceID forces a trace the receiver's spans join; 0 leaves the
	// statement to the receiver's local sampling.
	TraceID uint64
	// ParentSpanID is the caller's span the receiver's root hangs under
	// in a stitched tree (0 for a client-originated trace).
	ParentSpanID uint64
	// Partial asks for a SELECT's partial form (query.Shape.Partial)
	// instead of its answer: the rows a shard router merges. A shard
	// router sets it on an aggregated scatter.
	Partial bool
	SQL     string
	// Args bind to the statement's `?` placeholders.
	Args []value.Value
}

// execPartial is the Exec flags bit of Exec.Partial; no other bit is
// defined.
const execPartial byte = 1

// EncodeExec serializes an OpExec payload: the trace id and parent span
// id as uvarints, a flags byte, the SQL text (uvarint-length-prefixed),
// then the arguments in the internal/value row codec.
func EncodeExec(e Exec) []byte {
	b := make([]byte, 0, 3*binary.MaxVarintLen64+len(e.SQL)+2)
	b = binary.AppendUvarint(b, e.TraceID)
	b = binary.AppendUvarint(b, e.ParentSpanID)
	var flags byte
	if e.Partial {
		flags |= execPartial
	}
	b = append(b, flags)
	b = appendString(b, e.SQL)
	return value.EncodeRow(b, e.Args)
}

// DecodeExec parses an OpExec payload. A flags byte with an undefined
// bit set is refused.
func DecodeExec(p []byte) (Exec, error) {
	var e Exec
	var err error
	if e.TraceID, p, err = readUvarint(p, "exec trace id"); err != nil {
		return Exec{}, err
	}
	if e.ParentSpanID, p, err = readUvarint(p, "exec parent span id"); err != nil {
		return Exec{}, err
	}
	if len(p) == 0 {
		return Exec{}, fmt.Errorf("wire: exec flags")
	}
	if p[0]&^execPartial != 0 {
		return Exec{}, fmt.Errorf("wire: exec flags %#x has undefined bits", p[0])
	}
	e.Partial, p = p[0]&execPartial != 0, p[1:]
	sql, used, err := readString(p)
	if err != nil {
		return Exec{}, fmt.Errorf("wire: exec sql: %w", err)
	}
	args, argBytes, err := value.DecodeRow(p[used:])
	if err != nil {
		return Exec{}, fmt.Errorf("wire: exec args: %w", err)
	}
	if used+argBytes != len(p) {
		return Exec{}, fmt.Errorf("wire: exec has %d trailing bytes", len(p)-used-argBytes)
	}
	e.SQL, e.Args = sql, args
	return e, nil
}

// ReplHello is the replication handshake payload: the leader log
// position the follower wants to resume from (0:0 for a fresh replica
// that needs full history) and, for diagnostics, the follower's last
// published commit epoch.
type ReplHello struct {
	Version uint16
	// Seg and Off are the wal.Pos the stream starts at.
	Seg uint64
	Off uint64
	// LastEpoch is the follower's last published snapshot epoch
	// (diagnostic: the leader logs it, nothing more).
	LastEpoch uint64
}

// EncodeReplHello serializes a replication handshake payload.
func EncodeReplHello(h ReplHello) []byte {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, Magic)
	b = binary.BigEndian.AppendUint16(b, h.Version)
	b = binary.AppendUvarint(b, h.Seg)
	b = binary.AppendUvarint(b, h.Off)
	return binary.AppendUvarint(b, h.LastEpoch)
}

// DecodeReplHello parses a replication handshake payload, validating
// the magic.
func DecodeReplHello(p []byte) (ReplHello, error) {
	if len(p) < 6 {
		return ReplHello{}, fmt.Errorf("wire: short repl-hello (%d bytes)", len(p))
	}
	if m := binary.BigEndian.Uint32(p); m != Magic {
		return ReplHello{}, fmt.Errorf("wire: bad magic 0x%08x", m)
	}
	h := ReplHello{Version: binary.BigEndian.Uint16(p[4:])}
	p = p[6:]
	var n int
	if h.Seg, n = binary.Uvarint(p); n <= 0 {
		return ReplHello{}, fmt.Errorf("wire: repl-hello segment")
	}
	p = p[n:]
	if h.Off, n = binary.Uvarint(p); n <= 0 {
		return ReplHello{}, fmt.Errorf("wire: repl-hello offset")
	}
	p = p[n:]
	if h.LastEpoch, n = binary.Uvarint(p); n <= 0 {
		return ReplHello{}, fmt.Errorf("wire: repl-hello epoch")
	}
	if n != len(p) {
		return ReplHello{}, fmt.Errorf("wire: repl-hello has %d trailing bytes", len(p)-n)
	}
	return h, nil
}

// ReplBatch is one replicated commit batch: the position of the NEXT
// batch in the leader's log (the follower's resume point once this one
// is durable) and the batch records, encoded with the wal plain-record
// codec (wal.EncodeRecords / wal.DecodeRecords).
type ReplBatch struct {
	NextSeg uint64
	NextOff uint64
	Records []byte
}

// EncodeReplBatch serializes an OpReplBatch payload.
func EncodeReplBatch(b ReplBatch) []byte {
	out := binary.AppendUvarint(nil, b.NextSeg)
	out = binary.AppendUvarint(out, b.NextOff)
	return append(out, b.Records...)
}

// DecodeReplBatch parses an OpReplBatch payload. The record bytes are
// returned verbatim; the caller decodes them with wal.DecodeRecords.
func DecodeReplBatch(p []byte) (ReplBatch, error) {
	var b ReplBatch
	var n int
	if b.NextSeg, n = binary.Uvarint(p); n <= 0 {
		return b, fmt.Errorf("wire: repl-batch segment")
	}
	p = p[n:]
	if b.NextOff, n = binary.Uvarint(p); n <= 0 {
		return b, fmt.Errorf("wire: repl-batch offset")
	}
	b.Records = p[n:]
	return b, nil
}

// ReplHeartbeat reports the leader's current log end position on an
// idle stream.
type ReplHeartbeat struct {
	EndSeg uint64
	EndOff uint64
}

// EncodeReplHeartbeat serializes an OpReplHeartbeat payload.
func EncodeReplHeartbeat(h ReplHeartbeat) []byte {
	out := binary.AppendUvarint(nil, h.EndSeg)
	return binary.AppendUvarint(out, h.EndOff)
}

// DecodeReplHeartbeat parses an OpReplHeartbeat payload.
func DecodeReplHeartbeat(p []byte) (ReplHeartbeat, error) {
	var h ReplHeartbeat
	var n int
	if h.EndSeg, n = binary.Uvarint(p); n <= 0 {
		return h, fmt.Errorf("wire: repl-heartbeat segment")
	}
	p = p[n:]
	if h.EndOff, n = binary.Uvarint(p); n <= 0 {
		return h, fmt.Errorf("wire: repl-heartbeat offset")
	}
	if n != len(p) {
		return h, fmt.Errorf("wire: repl-heartbeat has %d trailing bytes", len(p)-n)
	}
	return h, nil
}

// BackupReq asks the server to stream a backup archive.
type BackupReq struct {
	// Incremental selects an incremental backup resuming at FromSeg/
	// FromOff (the End position recorded by the previous archive in the
	// chain); false streams a full epoch-pinned backup.
	Incremental bool
	// FromSeg and FromOff are the wal.Pos an incremental resumes at.
	FromSeg, FromOff uint64
}

// EncodeBackupReq serializes an OpBackup payload.
func EncodeBackupReq(r BackupReq) []byte {
	kind := byte(0)
	if r.Incremental {
		kind = 1
	}
	b := []byte{kind}
	b = binary.AppendUvarint(b, r.FromSeg)
	return binary.AppendUvarint(b, r.FromOff)
}

// DecodeBackupReq parses an OpBackup payload.
func DecodeBackupReq(p []byte) (BackupReq, error) {
	if len(p) < 1 {
		return BackupReq{}, fmt.Errorf("wire: short backup request")
	}
	r := BackupReq{Incremental: p[0] == 1}
	p = p[1:]
	var n int
	if r.FromSeg, n = binary.Uvarint(p); n <= 0 {
		return BackupReq{}, fmt.Errorf("wire: backup-req from segment")
	}
	p = p[n:]
	if r.FromOff, n = binary.Uvarint(p); n <= 0 {
		return BackupReq{}, fmt.Errorf("wire: backup-req from offset")
	}
	if n != len(p) {
		return BackupReq{}, fmt.Errorf("wire: backup-req has %d trailing bytes", len(p)-n)
	}
	return r, nil
}

// BackupDone summarizes a completed backup stream: the source log
// position one past the archived material (the next incremental's
// resume point) and the tuple/batch counts.
type BackupDone struct {
	// EndSeg and EndOff are the wal.Pos the archive covers up to.
	EndSeg, EndOff uint64
	// Tuples and Batches count archived snapshot tuples and raw WAL
	// batches.
	Tuples, Batches uint64
}

// EncodeBackupDone serializes an OpBackupDone payload.
func EncodeBackupDone(d BackupDone) []byte {
	b := binary.AppendUvarint(nil, d.EndSeg)
	b = binary.AppendUvarint(b, d.EndOff)
	b = binary.AppendUvarint(b, d.Tuples)
	return binary.AppendUvarint(b, d.Batches)
}

// DecodeBackupDone parses an OpBackupDone payload.
func DecodeBackupDone(p []byte) (BackupDone, error) {
	var d BackupDone
	vals := []*uint64{&d.EndSeg, &d.EndOff, &d.Tuples, &d.Batches}
	for i, v := range vals {
		u, n := binary.Uvarint(p)
		if n <= 0 {
			return d, fmt.Errorf("wire: backup-done field %d", i)
		}
		*v = u
		p = p[n:]
	}
	if len(p) != 0 {
		return d, fmt.Errorf("wire: backup-done has %d trailing bytes", len(p))
	}
	return d, nil
}

// Stat is one metric sample in an OpStatsReply payload: Key is the
// Prometheus series name (label pair included), Value the sample value.
type Stat struct {
	Key   string
	Value float64
}

// EncodeStats serializes an OpStatsReply payload: a uvarint count, then
// per sample the key (uvarint-length-prefixed) and the value as IEEE 754
// bits, big-endian.
func EncodeStats(stats []Stat) []byte {
	b := binary.AppendUvarint(nil, uint64(len(stats)))
	for _, s := range stats {
		b = appendString(b, s.Key)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(s.Value))
	}
	return b
}

// DecodeStats parses an OpStatsReply payload.
func DecodeStats(p []byte) ([]Stat, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, fmt.Errorf("wire: stats count")
	}
	p = p[n:]
	if count > uint64(len(p)) { // each sample is ≥ 9 bytes; cheap bound
		return nil, fmt.Errorf("wire: stats count %d exceeds payload", count)
	}
	stats := make([]Stat, 0, count)
	for i := uint64(0); i < count; i++ {
		key, used, err := readString(p)
		if err != nil {
			return nil, fmt.Errorf("wire: stats key %d: %w", i, err)
		}
		p = p[used:]
		if len(p) < 8 {
			return nil, fmt.Errorf("wire: stats value %d truncated", i)
		}
		stats = append(stats, Stat{Key: key, Value: math.Float64frombits(binary.BigEndian.Uint64(p))})
		p = p[8:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("wire: stats payload has %d trailing bytes", len(p))
	}
	return stats, nil
}

// EncodeShardCheck serializes an OpShardCheck payload: the routing-table
// version the router is serving this shard under.
func EncodeShardCheck(version uint64) []byte {
	return binary.AppendUvarint(nil, version)
}

// DecodeShardCheck parses an OpShardCheck payload.
func DecodeShardCheck(p []byte) (uint64, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, fmt.Errorf("wire: shard-check version")
	}
	if n != len(p) {
		return 0, fmt.Errorf("wire: shard-check has %d trailing bytes", len(p)-n)
	}
	return v, nil
}

// EncodeShardCheckReply serializes an OpShardCheckReply payload: the
// routing-table version the shard had stored before this check.
func EncodeShardCheckReply(stored uint64) []byte {
	return binary.AppendUvarint(nil, stored)
}

// DecodeShardCheckReply parses an OpShardCheckReply payload.
func DecodeShardCheckReply(p []byte) (uint64, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, fmt.Errorf("wire: shard-check reply version")
	}
	if n != len(p) {
		return 0, fmt.Errorf("wire: shard-check reply has %d trailing bytes", len(p)-n)
	}
	return v, nil
}

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// readString reads a uvarint-length-prefixed string, returning the bytes
// consumed.
func readString(p []byte) (s string, used int, err error) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 {
		return "", 0, fmt.Errorf("bad string length")
	}
	if uint64(len(p)-sz) < n {
		return "", 0, fmt.Errorf("short string (want %d have %d)", n, len(p)-sz)
	}
	return string(p[sz : sz+int(n)]), sz + int(n), nil
}
