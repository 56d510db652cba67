// Package forensic implements the adversary the paper defends against
// (§III, citing Stahlberg, Miklau and Levine, "Threats to privacy in the
// forensic analysis of database systems"): an attacker with raw byte
// access to every persistent artifact — page store, log segments, key
// file — searching for recoverable traces of expired accuracy states.
// The experiment harness uses it to *prove* non-recoverability: after a
// transition's deadline, a scan for the old stored form must come back
// empty.
package forensic

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"instantdb/internal/storage"
	"instantdb/internal/value"
	"instantdb/internal/wal"
)

// Needle is a byte pattern whose presence in a raw artifact counts as a
// leak, labeled for reporting.
type Needle struct {
	Label string
	Bytes []byte
}

// NeedleForStored builds a needle for a stored degradable value: the
// exact encoding the storage layer and the (plain) log write for it.
func NeedleForStored(label string, v value.Value) Needle {
	return Needle{Label: label, Bytes: value.Encode(nil, v)}
}

// NeedleForText builds a needle for a raw text fragment (stable columns,
// rendered values).
func NeedleForText(label, text string) Needle {
	return Needle{Label: label, Bytes: []byte(text)}
}

// Finding is one located leak.
type Finding struct {
	// Artifact names the scanned surface ("store", or a file path).
	Artifact string
	// Offset is the byte offset of the first occurrence within the
	// artifact unit (page or file).
	Offset int
	// Unit identifies the page id or file.
	Unit string
	// Label is the needle's label.
	Label string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %q at %s+%d", f.Artifact, f.Label, f.Unit, f.Offset)
}

// Report aggregates one scan.
type Report struct {
	BytesScanned int64
	Findings     []Finding
}

// Clean reports whether the scan found no leaks.
func (r Report) Clean() bool { return len(r.Findings) == 0 }

// Merge folds another report into r.
func (r *Report) Merge(other Report) {
	r.BytesScanned += other.BytesScanned
	r.Findings = append(r.Findings, other.Findings...)
}

// ScanStore searches every raw page of a store.
func ScanStore(s storage.Store, needles []Needle) (Report, error) {
	var rep Report
	err := s.ForEachPage(func(id storage.PageID, data []byte) error {
		rep.BytesScanned += int64(len(data))
		for _, n := range needles {
			if off := bytes.Index(data, n.Bytes); off >= 0 {
				rep.Findings = append(rep.Findings, Finding{
					Artifact: "store",
					Unit:     fmt.Sprintf("page %d", id),
					Offset:   off,
					Label:    n.Label,
				})
			}
		}
		return nil
	})
	return rep, err
}

// ScanFile searches one file; missing files scan clean. The file is
// streamed through ScanReader, so arbitrarily large artifacts — backup
// archives in particular — scan in constant memory.
func ScanFile(path string, needles []Needle) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return Report{}, nil
		}
		return Report{}, err
	}
	defer f.Close()
	return ScanReader(path, filepath.Base(path), f, needles)
}

// scanChunk is ScanReader's read granularity.
const scanChunk = 256 << 10

// ScanReader streams r in chunks, searching for every needle. A tail of
// maxNeedleLen-1 bytes is carried between chunks, so matches spanning a
// chunk boundary are found; reported offsets are absolute within the
// stream, and only the first occurrence of each needle is recorded.
// This is the scan primitive for artifacts that are not files on disk —
// a backup archive still in flight, a network stream, a pipe.
func ScanReader(artifact, unit string, r io.Reader, needles []Needle) (Report, error) {
	var rep Report
	maxLen := 0
	for _, n := range needles {
		if len(n.Bytes) > maxLen {
			maxLen = len(n.Bytes)
		}
	}
	if maxLen == 0 {
		n, err := io.Copy(io.Discard, r)
		rep.BytesScanned = n
		return rep, err
	}
	found := make([]bool, len(needles))
	buf := make([]byte, 0, scanChunk+maxLen)
	var base int64 // stream offset of buf[0]
	for {
		n, err := io.ReadAtLeast(r, buf[len(buf):cap(buf)], 1)
		if n > 0 {
			rep.BytesScanned += int64(n)
			buf = buf[:len(buf)+n]
			for i, nd := range needles {
				if found[i] {
					continue
				}
				if off := bytes.Index(buf, nd.Bytes); off >= 0 {
					found[i] = true
					rep.Findings = append(rep.Findings, Finding{
						Artifact: artifact, Unit: unit, Offset: int(base) + off, Label: nd.Label,
					})
				}
			}
			// Keep the overlap tail; everything before it is fully scanned.
			if keep := maxLen - 1; len(buf) > keep {
				base += int64(len(buf) - keep)
				copy(buf, buf[len(buf)-keep:])
				buf = buf[:keep]
			}
		}
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return rep, nil
			}
			return rep, err
		}
	}
}

// ScanDir searches every regular file under dir (the WAL directory, the
// key file's directory, or a whole database directory).
func ScanDir(dir string, needles []Needle) (Report, error) {
	var rep Report
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		sub, err := ScanFile(path, needles)
		if err != nil {
			return err
		}
		rep.Merge(sub)
		return nil
	})
	if os.IsNotExist(err) {
		err = nil
	}
	return rep, err
}

// Snapshot is the attacker's periodic-dump primitive (experiment E2): it
// copies every live page, modeling a one-shot raw exfiltration of the
// data space. The returned byte slab can be searched later.
func Snapshot(s storage.Store) ([]byte, error) {
	var out []byte
	err := s.ForEachPage(func(_ storage.PageID, data []byte) error {
		out = append(out, data...)
		return nil
	})
	return out, err
}

// Payload is one degradable value the log still gives up: a sealed
// payload whose epoch key is alive, or one that was never encrypted.
type Payload struct {
	Table uint32
	Tuple storage.TupleID
	// Col is the degradable column position, State the LCP state the
	// value was stored at, InsertNano the tuple's insert time — together
	// with the table's policy they give the deadline by which the value
	// had to become unreadable.
	Col        uint8
	State      uint8
	InsertNano int64
	Value      value.Value
}

// OpenablePayloads is the decrypting adversary: someone holding the
// database directory who knows the formats. The byte-grep scans above
// cannot see an epoch key that outlived its deadline — the ciphertext is
// not the needle — so this one opens keys.db and wal/ with the system's
// own reader and lists every degradable payload that still decodes to a
// value. It works on a private copy, as an attacker works on an image:
// opening a key store or a log repairs it in place, and the evidence
// must stay as it was found. NULLs are not listed; they carry nothing.
func OpenablePayloads(dir string) ([]Payload, error) {
	image, err := os.MkdirTemp("", "forensic-image-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(image)
	if err := copyFile(filepath.Join(dir, "keys.db"), filepath.Join(image, "keys.db")); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*"))
	if err != nil {
		return nil, err
	}
	if err := os.Mkdir(filepath.Join(image, "wal"), 0o700); err != nil {
		return nil, err
	}
	for _, seg := range segs {
		if err := copyFile(seg, filepath.Join(image, "wal", filepath.Base(seg))); err != nil {
			return nil, err
		}
	}

	ks, err := wal.OpenKeyStore(filepath.Join(image, "keys.db"))
	if err != nil {
		return nil, err
	}
	defer ks.Close()
	// Every run names its key bucket, so the width given here is unused.
	log, err := wal.Open(filepath.Join(image, "wal"), wal.Options{Codec: wal.NewShredCodec(ks, time.Hour)})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	var out []Payload
	err = log.Replay(func(r *wal.Record) error {
		switch r.Type {
		case wal.RecInsert:
			for i, v := range r.DegVals {
				if !r.DegLost[i] && !v.IsNull() {
					state := uint8(0)
					if i < len(r.States) {
						state = r.States[i]
					}
					out = append(out, Payload{r.Table, r.Tuple, uint8(i), state, r.InsertNano, v})
				}
			}
		case wal.RecDegrade:
			if !r.NewLost && !r.NewStored.IsNull() {
				out = append(out, Payload{r.Table, r.Tuple, r.DegPos, r.NewState, r.InsertNano, r.NewStored})
			}
		}
		return nil
	})
	return out, err
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o600)
}
