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
// pages whose records carried fixed-width INTs.
//
//	offset size field
//	0      2    magic (0xDB09 in use, 0x0000 free)
//	2      2    numSlots
//	4      2    freeStart (end of slot directory)
//	6      2    freeEnd   (start of record data)
//	8      2    liveSlots
//	10     2    reserved
//	12     4    tableID
//	16     ...  slot directory: per slot {offset u16, length u16}; offset 0 = dead
const (
	pageMagic  = 0xDB09
	pageHeader = 16
	slotSize   = 4
)

// MaxRecordSize is the largest record a page can hold.
const MaxRecordSize = PageSize - pageHeader - slotSize

// ErrRecordTooLarge is returned when a tuple exceeds MaxRecordSize.
var ErrRecordTooLarge = errors.New("storage: record exceeds page capacity")

// ErrPageFormat reports a page whose magic is neither the in-use magic
// nor 0: a page of another format, or a corrupt header. Rebuild refuses
// it rather than free it, which would overwrite its tuples.
var ErrPageFormat = errors.New("storage: page of an unknown format")

func initPage(p []byte, tableID uint32) {
	for i := range p {
		p[i] = 0
	}
	binary.LittleEndian.PutUint16(p[0:], pageMagic)
	binary.LittleEndian.PutUint16(p[2:], 0)
	binary.LittleEndian.PutUint16(p[4:], pageHeader)
	binary.LittleEndian.PutUint16(p[6:], PageSize)
	binary.LittleEndian.PutUint16(p[8:], 0)
	binary.LittleEndian.PutUint32(p[12:], tableID)
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

// pageInsert places rec in the page, returning the slot index. ok is
// false when the page lacks space.
func pageInsert(p []byte, rec []byte) (slot uint16, ok bool) {
	if len(rec) > MaxRecordSize {
		return 0, false
	}
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
	need := len(rec)
	if slot == n {
		need += slotSize
	}
	if freeEnd-freeStart < need {
		return 0, false
	}
	dataOff := freeEnd - len(rec)
	copy(p[dataOff:], rec)
	setSlotEntry(p, slot, uint16(dataOff), uint16(len(rec)))
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

// pageOverwrite replaces a record in place when the new encoding fits the
// old slot, scrubbing the tail. ok is false when it does not fit (caller
// falls back to delete+insert).
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
