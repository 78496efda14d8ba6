// JobImage wire format: a deterministic, versioned binary encoding so a
// frozen job can cross any boundary bytes can (tests pin golden bytes;
// the cluster layer hands the struct across directly). The format is
// flat little-endian with length-prefixed sequences — no maps, no
// floats except the policy's (bit-pattern encoded) — and it is written
// down once: (*wire).image names every field in order, and the same
// walk encodes or decodes depending on the wire's direction. A format
// change is one edit there plus a version bump, and "whatever decodes
// re-encodes to the same bytes" holds by construction as long as each
// primitive has one encoding (a boolean byte is 0 or 1, nothing else).
// The decoder trusts nothing: every length is checked against the bytes
// remaining before allocation, and corrupt input surfaces as an error,
// never a panic (FuzzDecodeJobImage holds it to that).
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// imageMagic and imageVersion head every encoded JobImage. Bump the
// version on any format change; the decoder rejects others.
var imageMagic = [4]byte{'H', 'J', 'I', 'M'}

const imageVersion uint16 = 2 // v2: kernel launch counters in JobStats

// ErrBadImage reports undecodable JobImage bytes (truncated input,
// wrong magic or version, a length that overruns the buffer). Match
// with errors.Is.
var ErrBadImage = errors.New("malformed job image")

// wire is one pass over the format in either direction. Encoding
// appends each field it is shown to buf and only ever reads through the
// pointers it is given — the cluster hands images across goroutines;
// decoding consumes buf from off and stores through them. After the
// first decoding error every step is a no-op.
type wire struct {
	buf []byte
	off int
	dec bool
	err error
}

func (w *wire) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("%w: %s at offset %d", ErrBadImage, fmt.Sprintf(format, args...), w.off)
	}
}

// take consumes n input bytes (decoding only); nil after an error.
func (w *wire) take(n int) []byte {
	if w.err != nil {
		return nil
	}
	if n > len(w.buf)-w.off {
		w.fail("need %d bytes, have %d", n, len(w.buf)-w.off)
		return nil
	}
	b := w.buf[w.off : w.off+n]
	w.off += n
	return b
}

func (w *wire) u8(p *uint8) {
	if !w.dec {
		w.buf = append(w.buf, *p)
	} else if b := w.take(1); b != nil {
		*p = b[0]
	}
}

func (w *wire) u16(p *uint16) {
	if !w.dec {
		w.buf = binary.LittleEndian.AppendUint16(w.buf, *p)
	} else if b := w.take(2); b != nil {
		*p = binary.LittleEndian.Uint16(b)
	}
}

func (w *wire) u32(p *uint32) {
	if !w.dec {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, *p)
	} else if b := w.take(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

func (w *wire) u64(p *uint64) {
	if !w.dec {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, *p)
	} else if b := w.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

func (w *wire) i32(p *int32) {
	u := uint32(*p)
	if w.u32(&u); w.dec {
		*p = int32(u)
	}
}

func (w *wire) f64(p *float64) {
	u := math.Float64bits(*p)
	if w.u64(&u); w.dec {
		*p = math.Float64frombits(u)
	}
}

func (w *wire) boolean(p *bool) {
	var b uint8
	if *p {
		b = 1
	}
	if w.u8(&b); w.dec {
		if b > 1 {
			w.fail("boolean byte %#x", b)
		}
		*p = b == 1
	}
}

// count walks a sequence's length prefix and returns how many elements
// follow. Decoding bounds it by the bytes remaining (each element
// encodes to at least min bytes), so a corrupt length cannot drive a
// giant allocation before take would catch it.
func (w *wire) count(n, min int) int {
	u := uint32(n)
	if w.u32(&u); !w.dec {
		return n
	}
	if w.err == nil && int(u) > (len(w.buf)-w.off)/min {
		w.fail("sequence of %d x %d bytes overruns input", u, min)
	}
	if w.err != nil {
		return 0
	}
	return int(u)
}

// seq walks a length-prefixed sequence, each element through elem. An
// empty sequence decodes to nil, whatever it was encoded from. min is
// the fewest bytes one element can encode to (every string and sequence
// in it empty); it only bounds allocation, so too low is safe and too
// high rejects valid input — TestImageRoundTrip's all-zero image would
// fail.
func seq[T any](w *wire, s *[]T, min int, elem func(*wire, *T)) {
	n := w.count(len(*s), min)
	if w.dec && n > 0 {
		*s = make([]T, n)
	}
	for i := 0; i < n; i++ {
		elem(w, &(*s)[i])
	}
}

func (w *wire) str(p *string) {
	if n := w.count(len(*p), 1); !w.dec {
		w.buf = append(w.buf, *p...)
	} else {
		*p = string(w.take(n))
	}
}

// bytes is seq over u8, as one copy.
func (w *wire) bytes(p *[]byte) {
	if n := w.count(len(*p), 1); !w.dec {
		w.buf = append(w.buf, *p...)
	} else if n > 0 {
		*p = append([]byte(nil), w.take(n)...)
	}
}

func (w *wire) u64s(p *[]uint64) { seq(w, p, 8, (*wire).u64) }
func (w *wire) u32s(p *[]uint32) { seq(w, p, 4, (*wire).u32) }
func (w *wire) i32s(p *[]int32)  { seq(w, p, 4, (*wire).i32) }
func (w *wire) bools(p *[]bool)  { seq(w, p, 1, (*wire).boolean) }

// image is the format: header, then every field in wire order.
func (w *wire) image(img *JobImage) {
	magic, version := imageMagic, imageVersion
	for i := range magic {
		w.u8(&magic[i])
	}
	if w.err == nil && magic != imageMagic {
		w.fail("bad magic %q", magic[:])
	}
	if w.u16(&version); w.err == nil && version != imageVersion {
		w.fail("version %d, want %d", version, imageVersion)
	}

	w.str(&img.Name)
	w.u64((*uint64)(&img.AdmittedAt))
	w.u64((*uint64)(&img.Deadline))
	w.u64((*uint64)(&img.FrozenAt))
	w.u8((*uint8)(&img.Verdict))
	s := &img.Stats
	for _, p := range []*uint64{&s.Migrations, &s.Steals, &s.Compiles, &s.GCPauses, &s.GCCycles,
		&s.KernelLaunches, &s.KernelWorkers, &s.KernelDMABytes} {
		w.u64(p)
	}
	w.bytes(&img.Output)

	w.u8(&img.Policy.Tag)
	w.str(&img.Policy.Kind)
	w.f64(&img.Policy.FPThreshold)
	w.f64(&img.Policy.MemThreshold)
	w.u64(&img.Policy.MinCycles)

	seq(w, &img.Objects, 21, func(w *wire, o *ImageObject) {
		w.str(&o.Class)
		w.u8(&o.Elem)
		w.u32(&o.Length)
		w.bytes(&o.Data)
		w.u32s(&o.Elems)
		w.u64s(&o.Slots)
	})
	seq(w, &img.Statics, 8, func(w *wire, s *ImageStatics) {
		w.str(&s.Class)
		w.u64s(&s.Slots)
	})
	seq(w, &img.ClassLocks, 8, func(w *wire, c *ImageClassLock) {
		w.str(&c.Class)
		w.u32(&c.Obj)
	})
	seq(w, &img.Threads, 78, (*wire).thread)
	seq(w, &img.Monitors, 20, func(w *wire, m *ImageMonitor) {
		w.u32(&m.Obj)
		w.i32(&m.Owner)
		w.i32(&m.Count)
		w.i32s(&m.Blocked)
		w.i32s(&m.Waiters)
	})
}

func (w *wire) thread(t *ImageThread) {
	w.str(&t.Name)
	w.boolean(&t.Terminated)
	w.boolean(&t.Blocked)
	w.u64(&t.ReadyDelay)
	w.str(&t.Kind)
	w.u32(&t.JavaObj)
	w.boolean(&t.PendingHasVal)
	w.boolean(&t.PendingIsRef)
	w.u64(&t.PendingVal)
	w.i32(&t.WaitCount)
	w.u64(&t.Migrations)
	w.u64(&t.Steals)
	w.u64(&t.CooldownLeft)
	w.u64(&t.Result)
	w.boolean(&t.HasResult)

	trap, has := t.Trap, t.Trap != nil
	if w.boolean(&has); has {
		if w.dec {
			trap = &TrapError{}
			t.Trap = trap
		}
		w.str(&trap.Kind)
		w.str(&trap.Detail)
		w.str(&trap.Method)
		pc := int32(trap.PC)
		if w.i32(&pc); w.dec {
			trap.PC = int(pc)
		}
	}

	w.i32s(&t.Joiners)
	seq(w, &t.Frames, 37, func(w *wire, f *ImageFrame) {
		w.boolean(&f.Marker)
		w.str(&f.ReturnKind)
		w.str(&f.Class)
		w.i32(&f.Method)
		w.i32(&f.BC)
		w.u64s(&f.Locals)
		w.bools(&f.LocalRefs)
		w.u64s(&f.Stack)
		w.bools(&f.StackRefs)
		w.u32(&f.SyncObj)
	})
}

// EncodeJobImage serializes an image to its versioned binary form.
// Identical images encode to identical bytes.
func EncodeJobImage(img *JobImage) []byte {
	w := &wire{}
	w.image(img)
	return w.buf
}

// DecodeJobImage parses the versioned binary form back into an image.
// Any malformed input — truncation, bad magic, lengths overrunning the
// buffer, a byte with no meaning, trailing garbage — returns an error
// wrapping ErrBadImage; the decoder never panics. Structural validity
// against a particular program (class names, index ranges, frame shape)
// is Rehydrate's validation.
func DecodeJobImage(data []byte) (*JobImage, error) {
	w := &wire{buf: data, dec: true}
	img := &JobImage{}
	w.image(img)
	if w.err == nil && w.off != len(data) {
		w.fail("%d trailing bytes", len(data)-w.off)
	}
	if w.err != nil {
		return nil, w.err
	}
	return img, nil
}
