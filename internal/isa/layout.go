package isa

// Object layout constants shared by the JIT (field-offset resolution),
// the VM (allocation, GC) and the SPE software cache (whole-object
// transfer sizing).
//
// Every object starts with a four-word header; instance fields follow as
// 8-byte slots; array element data follows the header packed at the
// element kind's width.
const (
	// HeaderBytes is the object header size: class ID (4), flags (4),
	// lock word (4, always zero: monitor state lives in the VM), array
	// length (4).
	HeaderBytes = 16
	// SlotBytes is the size of one instance/static field slot.
	SlotBytes = 8

	// Header field byte offsets.
	HeaderClassOff  = 0
	HeaderFlagsOff  = 4
	HeaderLockOff   = 8
	HeaderLengthOff = 12
)

// FieldOffset returns the byte offset of an instance field slot.
func FieldOffset(slot int) uint32 {
	return HeaderBytes + uint32(slot)*SlotBytes
}

// ObjectBytes returns the allocation size of a plain object with the
// given number of instance slots.
func ObjectBytes(slots int) uint32 {
	return HeaderBytes + uint32(slots)*SlotBytes
}

// ArrayBytes returns the allocation size of an array of n elements of
// kind k, rounded to 8 bytes.
func ArrayBytes(k ElemKind, n uint32) uint32 {
	return (HeaderBytes + n*k.Size() + 7) &^ 7
}
