// Package backup implements degradation-preserving backup and restore
// (DESIGN.md, "Backup & archives"). A full backup exports an
// epoch-pinned consistent snapshot of the database into a portable
// streamed archive; an incremental backup extends a previous archive
// with the raw WAL batches committed since its recorded log position;
// restore rebuilds a database directory atomically from a base archive
// plus any chain of incrementals.
//
// The property that makes these archives different from an ordinary
// dump: degradable payloads are stored as ciphertext under the SAME
// epoch-key ids the live WAL uses, and the keys themselves never leave
// the live wal.KeyStore. When the degradation engine shreds an epoch key
// at its LCP deadline, every archive ever taken loses that accuracy
// state retroactively — a backup can never be used to resurrect expired
// data, which is exactly the guarantee the paper demands of every other
// persistent artifact.
package backup

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"instantdb/internal/wal"
)

// archiveMagic opens every archive stream.
var archiveMagic = [8]byte{'I', 'D', 'B', 'K', 'U', 'P', 0x01, '\n'}

// FormatVersion is the archive format version this package reads and
// writes. Version 4 carries record sections in the WAL's column-wise
// runs (wal format 4). Version 3 held runs with stable rows written row
// by row, version 2 the same with fixed-width INTs, version 1
// per-record sections; each is refused at its header, before any record
// bytes reach the decoder.
const FormatVersion uint16 = 4

// Section kinds. Every section is framed as
//
//	kind u8 | length u32 LE | crc32(payload) u32 LE | payload
//
// and a valid archive ends with exactly one secEnd section, so a
// truncated stream is always detected.
const (
	// secHeader is the first section: version, archive kind, log
	// positions and the pinned snapshot epoch.
	secHeader = 1
	// secDDL carries the catalog DDL script (catalog.sql) as of the
	// backup instant. Incrementals carry the full current script too —
	// catalog.sql is append-only, so the last archive's script covers
	// the whole chain.
	secDDL = 2
	// secRecords carries a chunk of synthesized RecInsert records (the
	// epoch-pinned snapshot of full backups), wal-encoded with sealed
	// degradable payloads.
	secRecords = 3
	// secBatch carries the raw record bytes of one original WAL commit
	// batch, copied verbatim (incremental backups).
	secBatch = 4
	// secEnd terminates the archive; its payload summarizes tuple and
	// batch counts.
	secEnd = 5
)

// Header describes an archive, as recorded in its first section.
type Header struct {
	// Version is the archive format version.
	Version uint16
	// Incremental distinguishes the two archive kinds.
	Incremental bool
	// From is the log position an incremental archive resumes at; it
	// must equal the End of the previous archive in the chain. Zero for
	// full backups.
	From wal.Pos
	// End is the source log position one past the last material this
	// archive covers — the next incremental in the chain starts here.
	End wal.Pos
	// Epoch is the pinned snapshot epoch of a full backup (0 for
	// incrementals).
	Epoch uint64
	// TakenNano is the database clock reading when the backup started.
	TakenNano int64
}

// Summary reports one completed backup or the aggregate of a restore.
type Summary struct {
	// Incremental distinguishes the two archive kinds.
	Incremental bool
	// From and End are the covered source-log positions (see Header).
	From, End wal.Pos
	// Epoch is the pinned snapshot epoch (full backups).
	Epoch uint64
	// Tuples counts snapshot tuples archived or restored.
	Tuples int
	// Batches counts raw WAL batches archived or restored.
	Batches int
	// Bytes is the archive stream size produced (writers only).
	Bytes int64
}

// archiveWriter frames sections onto a stream, counting bytes.
type archiveWriter struct {
	w   io.Writer
	n   int64
	hdr [9]byte
}

func newArchiveWriter(w io.Writer) (*archiveWriter, error) {
	aw := &archiveWriter{w: w}
	if _, err := w.Write(archiveMagic[:]); err != nil {
		return nil, fmt.Errorf("backup: write magic: %w", err)
	}
	aw.n += int64(len(archiveMagic))
	return aw, nil
}

func (aw *archiveWriter) section(kind byte, payload []byte) error {
	aw.hdr[0] = kind
	binary.LittleEndian.PutUint32(aw.hdr[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(aw.hdr[5:], crc32.ChecksumIEEE(payload))
	if _, err := aw.w.Write(aw.hdr[:]); err != nil {
		return fmt.Errorf("backup: write section: %w", err)
	}
	if _, err := aw.w.Write(payload); err != nil {
		return fmt.Errorf("backup: write section: %w", err)
	}
	aw.n += int64(len(aw.hdr)) + int64(len(payload))
	return nil
}

func (aw *archiveWriter) header(h Header) error {
	p := binary.LittleEndian.AppendUint16(nil, h.Version)
	kind := byte(0)
	if h.Incremental {
		kind = 1
	}
	p = append(p, kind)
	p = binary.AppendUvarint(p, uint64(h.From.Seg))
	p = binary.AppendUvarint(p, uint64(h.From.Off))
	p = binary.AppendUvarint(p, uint64(h.End.Seg))
	p = binary.AppendUvarint(p, uint64(h.End.Off))
	p = binary.AppendUvarint(p, h.Epoch)
	p = binary.AppendUvarint(p, uint64(h.TakenNano))
	return aw.section(secHeader, p)
}

func (aw *archiveWriter) end(tuples, batches int) error {
	p := binary.AppendUvarint(nil, uint64(tuples))
	p = binary.AppendUvarint(p, uint64(batches))
	return aw.section(secEnd, p)
}

// maxSectionBytes caps a section's declared length before allocating.
// Writers emit records sections of ~chunkBytes and batch sections of
// one WAL commit batch; nothing legitimate approaches this bound, so a
// corrupt or hostile length field is rejected as a clean error instead
// of forcing a multi-GiB allocation.
const maxSectionBytes = 64 << 20

// archiveReader parses a framed archive stream.
type archiveReader struct {
	r      *bufio.Reader
	sawEnd bool
}

func newArchiveReader(r io.Reader) (*archiveReader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("backup: read magic: %w", err)
	}
	if magic != archiveMagic {
		return nil, errors.New("backup: not an InstantDB backup archive (bad magic)")
	}
	return &archiveReader{r: br}, nil
}

// next reads one section. After the end section it reports io.EOF.
func (ar *archiveReader) next() (kind byte, payload []byte, err error) {
	if ar.sawEnd {
		return 0, nil, io.EOF
	}
	var hdr [9]byte
	if _, err := io.ReadFull(ar.r, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("backup: truncated archive (missing end section): %w", err)
	}
	kind = hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:])
	want := binary.LittleEndian.Uint32(hdr[5:])
	if n > maxSectionBytes {
		return 0, nil, fmt.Errorf("backup: section (kind %d) claims %d bytes (limit %d) — corrupt archive", kind, n, maxSectionBytes)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(ar.r, payload); err != nil {
		return 0, nil, fmt.Errorf("backup: truncated section (kind %d): %w", kind, err)
	}
	if crc32.ChecksumIEEE(payload) != want {
		return 0, nil, fmt.Errorf("backup: section crc mismatch (kind %d)", kind)
	}
	if kind == secEnd {
		ar.sawEnd = true
	}
	return kind, payload, nil
}

// header reads and decodes the mandatory first section.
func (ar *archiveReader) header() (Header, error) {
	kind, p, err := ar.next()
	if err != nil {
		return Header{}, err
	}
	if kind != secHeader {
		return Header{}, fmt.Errorf("backup: first section is kind %d, want header", kind)
	}
	return decodeHeader(p)
}

func decodeHeader(p []byte) (Header, error) {
	var h Header
	if len(p) < 3 {
		return h, errors.New("backup: short header")
	}
	h.Version = binary.LittleEndian.Uint16(p)
	if h.Version != FormatVersion {
		return h, fmt.Errorf("backup: archive format version %d unsupported (want %d)", h.Version, FormatVersion)
	}
	h.Incremental = p[2] == 1
	p = p[3:]
	vals := make([]uint64, 6)
	for i := range vals {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return h, errors.New("backup: truncated header")
		}
		vals[i] = v
		p = p[n:]
	}
	h.From = wal.Pos{Seg: int(vals[0]), Off: int64(vals[1])}
	h.End = wal.Pos{Seg: int(vals[2]), Off: int64(vals[3])}
	h.Epoch = vals[4]
	h.TakenNano = int64(vals[5])
	return h, nil
}

// ReadHeader reads an archive's header from the start of r — tooling
// uses it to chain incrementals (the next backup resumes at End) and to
// report what an archive contains without restoring it.
func ReadHeader(r io.Reader) (*Header, error) {
	ar, err := newArchiveReader(r)
	if err != nil {
		return nil, err
	}
	h, err := ar.header()
	if err != nil {
		return nil, err
	}
	return &h, nil
}
