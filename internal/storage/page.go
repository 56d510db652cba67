package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Slotted page layout. The header is followed by a slot directory growing
// forward and record data growing backward from the page end. A freed
// page is entirely zero (magic 0), which doubles as the scrub guarantee
// and as the free-page marker recognized during rebuild. Any other magic
// is a page this build cannot read (see ErrPageFormat): 0xDB08 marked
// pages whose records carried fixed-width INTs, 0xDB09 pages whose
// records carried a fixed tuple id and insert time.
//
//	offset size field
//	0      2    magic (0xDB0A in use, 0x0000 free)
//	2      2    numSlots
//	4      2    freeStart (end of slot directory)
//	6      2    freeEnd   (start of record data)
//	8      2    liveSlots
//	10     2    reserved
//	12     4    tableID
//	16     8    frame tuple id (see frame)
//	24     8    frame insert nanos
//	32     ...  slot directory: per slot {offset u16, length u16}; offset 0 = dead
const (
	pageMagic  = 0xDB0A
	pageHeader = 32
	slotSize   = 4
)

// MaxRecordSize is the largest record a page can hold, in its page's
// frame.
const MaxRecordSize = PageSize - pageHeader - slotSize

// ErrRecordTooLarge is returned when a tuple exceeds MaxRecordSize.
var ErrRecordTooLarge = errors.New("storage: record exceeds page capacity")

// ErrPageFormat reports a page whose magic is neither the in-use magic
// nor 0: a page of another format, or a corrupt header. Rebuild refuses
// it rather than free it, which would overwrite its tuples.
var ErrPageFormat = errors.New("storage: page of an unknown format")

// initPage makes p an empty page of table tableID whose records are
// stored in frame f.
func initPage(p []byte, tableID uint32, f frame) {
	for i := range p {
		p[i] = 0
	}
	binary.LittleEndian.PutUint16(p[0:], pageMagic)
	binary.LittleEndian.PutUint16(p[2:], 0)
	binary.LittleEndian.PutUint16(p[4:], pageHeader)
	binary.LittleEndian.PutUint16(p[6:], PageSize)
	binary.LittleEndian.PutUint16(p[8:], 0)
	binary.LittleEndian.PutUint32(p[12:], tableID)
	binary.LittleEndian.PutUint64(p[16:], uint64(f.id))
	binary.LittleEndian.PutUint64(p[24:], uint64(f.nanos))
}

// pageFrame returns the frame the records of page p are stored in.
func pageFrame(p []byte) frame {
	return frame{
		id:    TupleID(binary.LittleEndian.Uint64(p[16:])),
		nanos: int64(binary.LittleEndian.Uint64(p[24:])),
	}
}

func pageMagicOf(p []byte) uint16 { return binary.LittleEndian.Uint16(p[0:]) }

func pageInUse(p []byte) bool { return pageMagicOf(p) == pageMagic }

func pageTableID(p []byte) uint32 {
	return binary.LittleEndian.Uint32(p[12:])
}

func pageNumSlots(p []byte) uint16 { return binary.LittleEndian.Uint16(p[2:]) }
func pageLive(p []byte) uint16     { return binary.LittleEndian.Uint16(p[8:]) }

func slotEntry(p []byte, slot uint16) (off, length uint16) {
	base := pageHeader + int(slot)*slotSize
	return binary.LittleEndian.Uint16(p[base:]), binary.LittleEndian.Uint16(p[base+2:])
}

func setSlotEntry(p []byte, slot uint16, off, length uint16) {
	base := pageHeader + int(slot)*slotSize
	binary.LittleEndian.PutUint16(p[base:], off)
	binary.LittleEndian.PutUint16(p[base+2:], length)
}

// pageFreeSpace returns the bytes available for a new record, accounting
// for a possibly needed new slot entry.
func pageFreeSpace(p []byte) int {
	freeStart := int(binary.LittleEndian.Uint16(p[4:]))
	freeEnd := int(binary.LittleEndian.Uint16(p[6:]))
	gap := freeEnd - freeStart
	// A dead slot can be recycled; otherwise the new record also needs a
	// directory entry.
	if !pageHasDeadSlot(p) {
		gap -= slotSize
	}
	if gap < 0 {
		return 0
	}
	return gap
}

// pageHasDeadSlot reports whether the slot directory holds a dead entry.
// Slots are never removed from the directory, only marked dead, and the
// header counts the live ones, so the difference is the dead count.
func pageHasDeadSlot(p []byte) bool { return pageNumSlots(p) > pageLive(p) }

// pageInsert places rec, a record encoded in frame from, in the page,
// rebased into the page's frame (rebaseRecord), and returns the slot
// index. ok is false when the page lacks space for the rebased record,
// or rec's delta prefix is malformed.
func pageInsert(p, rec []byte, from frame) (slot uint16, ok bool) {
	var prefix [maxRecordPrefix]byte
	head, body := prefix[:0], rec
	if to := pageFrame(p); to != from {
		var err error
		if head, body, err = rebaseRecord(head, rec, from, to); err != nil {
			return 0, false
		}
	}
	size := len(head) + len(body)
	freeStart := int(binary.LittleEndian.Uint16(p[4:]))
	freeEnd := int(binary.LittleEndian.Uint16(p[6:]))
	// Prefer recycling a dead slot's directory entry, when there is one.
	n := pageNumSlots(p)
	slot = n
	if pageHasDeadSlot(p) {
		for s := uint16(0); s < n; s++ {
			if off, _ := slotEntry(p, s); off == 0 {
				slot = s
				break
			}
		}
	}
	need := size
	if slot == n {
		need += slotSize
	}
	if freeEnd-freeStart < need {
		return 0, false
	}
	dataOff := freeEnd - size
	copy(p[dataOff:], head)
	copy(p[dataOff+len(head):], body)
	setSlotEntry(p, slot, uint16(dataOff), uint16(size))
	if slot == n {
		binary.LittleEndian.PutUint16(p[2:], n+1)
		binary.LittleEndian.PutUint16(p[4:], uint16(freeStart+slotSize))
	}
	binary.LittleEndian.PutUint16(p[6:], uint16(dataOff))
	binary.LittleEndian.PutUint16(p[8:], pageLive(p)+1)
	return slot, true
}

// pageRead returns the record bytes of a slot (aliasing the page buffer).
// ok is false for dead or out-of-range slots.
func pageRead(p []byte, slot uint16) ([]byte, bool) {
	if slot >= pageNumSlots(p) {
		return nil, false
	}
	off, length := slotEntry(p, slot)
	if off == 0 {
		return nil, false
	}
	return p[off : off+length], true
}

// pageDelete scrubs a record and marks its slot dead, returning the
// remaining live count. Deleting a dead slot is a no-op.
func pageDelete(p []byte, slot uint16) (live uint16, err error) {
	if slot >= pageNumSlots(p) {
		return pageLive(p), fmt.Errorf("storage: delete slot %d of %d", slot, pageNumSlots(p))
	}
	off, length := slotEntry(p, slot)
	if off == 0 {
		return pageLive(p), nil
	}
	for i := off; i < off+length; i++ {
		p[i] = 0 // scrub: the payload must not survive
	}
	setSlotEntry(p, slot, 0, 0)
	live = pageLive(p) - 1
	binary.LittleEndian.PutUint16(p[8:], live)
	return live, nil
}

// pageOverwrite replaces a record in place when the new encoding, in the
// page's frame, fits the old slot, scrubbing the tail. ok is false when
// it does not fit (caller falls back to delete+insert).
func pageOverwrite(p []byte, slot uint16, rec []byte) bool {
	if slot >= pageNumSlots(p) {
		return false
	}
	off, length := slotEntry(p, slot)
	if off == 0 || len(rec) > int(length) {
		return false
	}
	copy(p[off:], rec)
	for i := off + uint16(len(rec)); i < off+length; i++ {
		p[i] = 0 // scrub the shrunk tail
	}
	setSlotEntry(p, slot, off, uint16(len(rec)))
	return true
}

// pageScrubFree zero-fills the whole page, turning it into a free page.
func pageScrubFree(p []byte) {
	for i := range p {
		p[i] = 0
	}
}
