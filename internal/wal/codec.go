package wal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Codec resolves the keys the degradable payloads of a run are sealed
// under. The run codec (record.go) asks once per run and column, not per
// payload: it maps the run's insert times to a key bucket, fetches the
// bucket's cipher, and derives every payload's keystream itself from
// (tuple, table, column, state).
type Codec interface {
	// Bucket maps an insert time to the key epoch its payloads belong to.
	// A run never spans two buckets.
	Bucket(insertNano int64) int64
	// SealKey returns the cipher sealing the payloads of (table, col,
	// state) inserted in bucket; a nil cipher stores them plain.
	// ErrKeyShredded refuses a bucket whose key was destroyed; ErrSealLost
	// makes the encoder record the payloads as lost instead.
	SealKey(table uint32, col, state uint8, bucket int64) (cipher.Block, error)
	// OpenKey returns the cipher opening them at replay time, nil when
	// the key is gone: the payloads are irrecoverable and replay as NULL
	// with their Lost flag set, which is correct because a later degrade
	// record (whose key is still alive) supplies the tuple's current form.
	OpenKey(table uint32, col, state uint8, bucket int64) (cipher.Block, error)
}

// ErrKeyShredded reports an attempt to seal a payload under an epoch key
// that was already destroyed. Live commits treat it as fatal (nothing
// may be sealed under a retired accuracy window); backup writers turn it
// into ErrSealLost — the value expired mid-backup, so losing it is the
// guarantee, not a failure.
var ErrKeyShredded = errors.New("wal: epoch key already shredded")

// ErrSealLost, returned by a Codec's SealKey, tells the encoder to write
// the run column's payloads as lost (no material at all) and to set the
// Lost flag on their records, so the caller can tell which ones went.
// Decoding delivers them exactly like payloads whose key has since been
// destroyed.
var ErrSealLost = errors.New("wal: payload recorded as lost")

// PlainCodec stores payloads verbatim — the baseline whose log leaks
// every accuracy state until vacuumed.
type PlainCodec struct{}

// Bucket implements Codec: plain logs have no key epochs.
func (PlainCodec) Bucket(int64) int64 { return 0 }

// SealKey implements Codec.
func (PlainCodec) SealKey(uint32, uint8, uint8, int64) (cipher.Block, error) { return nil, nil }

// OpenKey implements Codec. A plain log holds no ciphertext; meeting
// some means the log was written under another codec.
func (PlainCodec) OpenKey(uint32, uint8, uint8, int64) (cipher.Block, error) {
	return nil, errors.New("wal: encrypted payload in a plain log")
}

// keyID identifies one epoch key: every degradable payload written for
// (table, column, LCP state) by tuples inserted within one time bucket
// shares a key, so destroying that single key erases them all from the
// log at once.
type keyID struct {
	table  uint32
	col    uint8
	state  uint8
	bucket int64 // insertNano / bucketWidth
}

// keyEntrySize is the fixed on-disk footprint of one key record, allowing
// in-place zero-overwrite when shredding.
const keyEntrySize = 64

// entFrontier flags an entry (byte 6) as a shred-frontier marker instead
// of a key: its bucket field records the highest bucket of (table, col,
// state) whose key has been destroyed. Compaction writes frontier
// markers so shredded entries can be dropped from the file without
// forgetting that their buckets are retired — a later attempt to seal
// (or recreate a key) at or below the frontier is refused exactly as if
// the zeroed entry were still present.
const entFrontier = 1

type keyEntry struct {
	off      int64
	key      [32]byte
	shredded bool
	// block is the key's expanded AES schedule, built on first use and
	// dropped with the key.
	block cipher.Block
}

// frontierKey scopes a shred frontier to one (table, column, LCP state).
type frontierKey struct {
	table uint32
	col   uint8
	state uint8
}

// KeyStore persists epoch keys in a dedicated file. Shredding overwrites
// the 32 key bytes in place and syncs; the ciphertext in the log is then
// permanently undecipherable (AES-CTR with a destroyed key), achieving
// log degradation without rewriting log segments. Shredded entries do
// not accumulate forever: Compact (run on open and at checkpoints)
// rewrites the file with live keys only, folding destroyed entries into
// per-(table, col, state) frontier markers that keep their buckets
// permanently refusable.
type KeyStore struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	entries  map[keyID]*keyEntry
	frontier map[frontierKey]int64
	shredded int
	size     int64
}

// OpenKeyStore opens (or creates) the key file at path and loads live
// keys. Entries shredded before the last close are compacted away.
func OpenKeyStore(path string) (*KeyStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("wal: open keystore %s: %w", path, err)
	}
	ks := &KeyStore{f: f, path: path, entries: make(map[keyID]*keyEntry), frontier: make(map[frontierKey]int64)}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	buf := make([]byte, keyEntrySize)
	for off := int64(0); off+keyEntrySize <= st.Size(); off += keyEntrySize {
		if _, err := f.ReadAt(buf, off); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: keystore read: %w", err)
		}
		id := keyID{
			table:  binary.LittleEndian.Uint32(buf[0:]),
			col:    buf[4],
			state:  buf[5],
			bucket: int64(binary.LittleEndian.Uint64(buf[8:])),
		}
		if buf[6] == entFrontier {
			fk := frontierKey{id.table, id.col, id.state}
			if id.bucket > ks.frontier[fk] {
				ks.frontier[fk] = id.bucket
			}
			continue
		}
		e := &keyEntry{off: off}
		copy(e.key[:], buf[16:48])
		allZero := true
		for _, b := range e.key {
			if b != 0 {
				allZero = false
				break
			}
		}
		e.shredded = allZero
		if e.shredded {
			ks.shredded++
		}
		ks.entries[id] = e
	}
	ks.size = st.Size() - st.Size()%keyEntrySize
	if ks.shredded > 0 {
		if err := ks.compactLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return ks, nil
}

// retiredLocked reports whether id's bucket sits at or below the shred
// frontier of its (table, col, state) — its key, if it ever existed, was
// destroyed and must never be recreated.
func (ks *KeyStore) retiredLocked(id keyID) bool {
	limit, ok := ks.frontier[frontierKey{id.table, id.col, id.state}]
	return ok && id.bucket <= limit
}

// cipherFor returns the cipher of id's live key, creating and persisting
// a key when create is set. The cipher is nil when the key is shredded,
// retired behind the compaction frontier, or absent.
func (ks *KeyStore) cipherFor(id keyID, create bool) (cipher.Block, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	e, found := ks.entries[id]
	if found && e.shredded {
		return nil, nil
	}
	if !found {
		if ks.retiredLocked(id) || !create {
			return nil, nil
		}
		e = &keyEntry{off: ks.size}
		if _, err := rand.Read(e.key[:]); err != nil {
			return nil, fmt.Errorf("wal: key generation: %w", err)
		}
		buf := make([]byte, keyEntrySize)
		binary.LittleEndian.PutUint32(buf[0:], id.table)
		buf[4], buf[5] = id.col, id.state
		binary.LittleEndian.PutUint64(buf[8:], uint64(id.bucket))
		copy(buf[16:48], e.key[:])
		if _, err := ks.f.WriteAt(buf, e.off); err != nil {
			return nil, fmt.Errorf("wal: keystore append: %w", err)
		}
		if err := ks.f.Sync(); err != nil {
			return nil, err
		}
		ks.size += keyEntrySize
		ks.entries[id] = e
	}
	if e.block == nil {
		block, err := aes.NewCipher(e.key[:])
		if err != nil {
			return nil, err
		}
		e.block = block
	}
	return e.block, nil
}

// Shred destroys every epoch key of (table, col, state) whose bucket ends
// at or before cutoff, zero-overwriting the key bytes on disk and
// syncing. It returns the number of keys destroyed. The caller (the
// degradation engine) must only invoke it after every transition covered
// by those keys is durable.
func (ks *KeyStore) Shred(table uint32, col, state uint8, cutoff time.Time, bucketWidth time.Duration) (int, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	w := int64(bucketWidth)
	if w <= 0 {
		return 0, errors.New("wal: non-positive bucket width")
	}
	n := 0
	zero := make([]byte, 32)
	for id, e := range ks.entries {
		if id.table != table || id.col != col || id.state != state || e.shredded {
			continue
		}
		bucketEnd := (id.bucket + 1) * w
		if bucketEnd > cutoff.UTC().UnixNano() {
			continue
		}
		if _, err := ks.f.WriteAt(zero, e.off+16); err != nil {
			return n, fmt.Errorf("wal: shred: %w", err)
		}
		e.key = [32]byte{}
		e.block = nil
		e.shredded = true
		ks.shredded++
		n++
	}
	if n > 0 {
		if err := ks.f.Sync(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Compact rewrites the key file without its shredded entries, folding
// them into frontier markers so their buckets stay permanently refused.
// The rewrite is crash-safe: the replacement is fully written and synced
// under a temporary name before an atomic rename, and the zero-overwrite
// that destroyed each key already happened at shred time — no key
// material ever reappears. The engine runs it at every checkpoint (and
// OpenKeyStore runs it on load), so the file's size tracks the live key
// population instead of growing forever.
func (ks *KeyStore) Compact() error {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.compactLocked()
}

func (ks *KeyStore) compactLocked() error {
	if ks.shredded == 0 {
		return nil
	}
	for id, e := range ks.entries {
		if !e.shredded {
			continue
		}
		fk := frontierKey{id.table, id.col, id.state}
		if id.bucket > ks.frontier[fk] {
			ks.frontier[fk] = id.bucket
		}
	}
	buf := make([]byte, 0, (len(ks.frontier)+len(ks.entries))*keyEntrySize)
	ent := make([]byte, keyEntrySize)
	for fk, bucket := range ks.frontier {
		for i := range ent {
			ent[i] = 0
		}
		binary.LittleEndian.PutUint32(ent[0:], fk.table)
		ent[4], ent[5], ent[6] = fk.col, fk.state, entFrontier
		binary.LittleEndian.PutUint64(ent[8:], uint64(bucket))
		buf = append(buf, ent...)
	}
	live := make(map[keyID]*keyEntry, len(ks.entries))
	off := int64(len(buf))
	for id, e := range ks.entries {
		if e.shredded {
			continue
		}
		for i := range ent {
			ent[i] = 0
		}
		binary.LittleEndian.PutUint32(ent[0:], id.table)
		ent[4], ent[5] = id.col, id.state
		binary.LittleEndian.PutUint64(ent[8:], uint64(id.bucket))
		copy(ent[16:48], e.key[:])
		buf = append(buf, ent...)
		live[id] = &keyEntry{off: off, key: e.key, block: e.block}
		off += keyEntrySize
	}
	tmpPath := ks.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("wal: keystore compact: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("wal: keystore compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	// Open the replacement BEFORE renaming it into place: if anything
	// here fails, the store keeps serving (and shredding into) the
	// original file — a half-switched state where Shred's zero
	// overwrites land on an unlinked inode must be impossible.
	f, err := os.OpenFile(tmpPath, os.O_RDWR, 0o600)
	if err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("wal: keystore compact reopen: %w", err)
	}
	if err := os.Rename(tmpPath, ks.path); err != nil {
		f.Close()
		os.Remove(tmpPath)
		return err
	}
	ks.f.Close()
	ks.f = f
	ks.entries = live
	ks.shredded = 0
	ks.size = int64(len(buf))
	return nil
}

// LiveKeys returns the number of unshredded keys (tooling/experiments).
func (ks *KeyStore) LiveKeys() int {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	n := 0
	for _, e := range ks.entries {
		if !e.shredded {
			n++
		}
	}
	return n
}

// SizeBytes returns the key file's current size (compaction tooling and
// tests).
func (ks *KeyStore) SizeBytes() int64 {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.size
}

// ExportTo writes the key file's current contents to w, holding the
// store lock so no shred or compaction interleaves with the copy. The
// snapshot a shard bootstrap restores against carries exactly the keys
// live at export time: anything shredded earlier is absent and its
// payloads restore as erased.
func (ks *KeyStore) ExportTo(w io.Writer) (int64, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	var written int64
	buf := make([]byte, 64<<10)
	for off := int64(0); off < ks.size; {
		n := int64(len(buf))
		if ks.size-off < n {
			n = ks.size - off
		}
		if _, err := ks.f.ReadAt(buf[:n], off); err != nil {
			return written, fmt.Errorf("wal: keystore export read: %w", err)
		}
		m, err := w.Write(buf[:n])
		written += int64(m)
		if err != nil {
			return written, err
		}
		off += n
	}
	return written, nil
}

// Close closes the key file.
func (ks *KeyStore) Close() error {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.f.Close()
}

// ShredCodec seals degradable payloads under epoch keys from a KeyStore:
// one key per (table, column, LCP state, insert-time bucket), so
// destroying that key erases every log copy of those values at once.
type ShredCodec struct {
	Keys *KeyStore
	// BucketWidth groups tuples into key epochs by insert time. Smaller
	// buckets tighten the lag between a state's deadline and its log
	// erasure at the cost of more keys; it should be well below the
	// shortest LCP retention.
	BucketWidth time.Duration
}

// NewShredCodec builds a key-shredding codec over an opened key store.
func NewShredCodec(ks *KeyStore, bucketWidth time.Duration) *ShredCodec {
	return &ShredCodec{Keys: ks, BucketWidth: bucketWidth}
}

// Bucket implements Codec: floor(insertNano / BucketWidth).
func (c *ShredCodec) Bucket(insertNano int64) int64 {
	w := int64(c.BucketWidth)
	b := insertNano / w
	if insertNano < 0 && insertNano%w != 0 {
		b--
	}
	return b
}

// SealKey implements Codec, minting the bucket's key on first use.
func (c *ShredCodec) SealKey(table uint32, col, state uint8, bucket int64) (cipher.Block, error) {
	block, err := c.Keys.cipherFor(keyID{table, col, state, bucket}, true)
	if err == nil && block == nil {
		err = fmt.Errorf("%w (table %d col %d state %d)", ErrKeyShredded, table, col, state)
	}
	return block, err
}

// OpenKey implements Codec.
func (c *ShredCodec) OpenKey(table uint32, col, state uint8, bucket int64) (cipher.Block, error) {
	return c.Keys.cipherFor(keyID{table, col, state, bucket}, false)
}

var (
	_ Codec = PlainCodec{}
	_ Codec = (*ShredCodec)(nil)
)
