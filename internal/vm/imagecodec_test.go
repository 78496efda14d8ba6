package vm

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

// sampleImage hand-builds a small JobImage exercising every wire-format
// feature: objects with all three payload shapes, statics, class locks,
// a trapped thread, a blocked thread with joiners, and a held monitor.
// Empty sequences are nil — the decoder normalizes to nil, so the
// round-trip test can require reflect.DeepEqual.
func sampleImage() *JobImage {
	return &JobImage{
		Name:       "sample",
		AdmittedAt: 12345,
		Deadline:   99999,
		FrozenAt:   54321,
		Verdict:    Verdict(1),
		Stats: JobStats{Migrations: 2, Steals: 1, Compiles: 7, GCPauses: 3, GCCycles: 4096,
			KernelLaunches: 1, KernelWorkers: 6, KernelDMABytes: 36864},
		Output: []byte("partial output\n"),
		Policy: ImagePolicy{Tag: policyMonitoring, FPThreshold: 0.25, MemThreshold: 0.5, MinCycles: 1000},
		Objects: []ImageObject{
			{Class: "Counter", Slots: []uint64{41, 2}},
			{Class: "[I", Elem: 1, Length: 3, Data: []byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}},
			{Class: "[LCounter;", Elem: 0, Length: 2, Elems: []uint32{1, 0}},
		},
		Statics:    []ImageStatics{{Class: "Snap", Slots: []uint64{19900}}},
		ClassLocks: []ImageClassLock{{Class: "Snap", Obj: 3}},
		Threads: []ImageThread{
			{
				Name: "main", Kind: "ppe", JavaObj: 0,
				WaitCount: -1, Result: 77, HasResult: true,
				Joiners: []int32{1},
				Frames: []ImageFrame{
					{Marker: true, ReturnKind: "ppe"},
					{
						Class: "Snap", Method: 0, BC: 12,
						Locals: []uint64{1, 2, 3}, LocalRefs: []bool{true, false, false},
						Stack: []uint64{9}, StackRefs: []bool{false},
						SyncObj: 1,
					},
				},
			},
			{
				Name: "w1", Blocked: true, ReadyDelay: 64, Kind: "spe", JavaObj: 3,
				PendingHasVal: true, PendingIsRef: true, PendingVal: 2,
				Migrations: 1, CooldownLeft: 500,
				Trap:      &TrapError{Kind: "npe", Detail: "null field", Method: "Worker.run", PC: 4},
				WaitCount: -1,
				Frames:    []ImageFrame{{Class: "Worker", Method: 1, BC: 0}},
			},
		},
		Monitors: []ImageMonitor{{Obj: 1, Owner: 0, Count: 2, Blocked: []int32{1}, Waiters: nil}},
	}
}

// TestImageRoundTrip: encode→decode reproduces the image exactly, and
// re-encoding the decoded image reproduces the bytes exactly. The
// all-zero image has one element of every sequence at its smallest
// encoding: the decoder's per-element minimum sizes must admit it.
func TestImageRoundTrip(t *testing.T) {
	allZero := &JobImage{
		Objects: make([]ImageObject, 1), Statics: make([]ImageStatics, 1),
		ClassLocks: make([]ImageClassLock, 1), Monitors: make([]ImageMonitor, 1),
		Threads: []ImageThread{{Frames: make([]ImageFrame, 1)}},
	}
	for name, img := range map[string]*JobImage{"sample": sampleImage(), "all-zero": allZero} {
		enc := EncodeJobImage(img)
		got, err := DecodeJobImage(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(img, got) {
			t.Errorf("%s: round trip changed the image:\n got %+v\nwant %+v", name, got, img)
		}
		if re := EncodeJobImage(got); !bytes.Equal(enc, re) {
			t.Errorf("%s: re-encoding the decoded image changed the bytes", name)
		}
	}
}

// TestImageRoundTripFrozen: same property for a real captured image.
func TestImageRoundTripFrozen(t *testing.T) {
	_, _, img, ok := freezeAt(t, 80_000)
	if !ok {
		t.Skip("job completed before the freeze point")
	}
	enc := EncodeJobImage(img)
	got, err := DecodeJobImage(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if re := EncodeJobImage(got); !bytes.Equal(enc, re) {
		t.Error("re-encoding the decoded image changed the bytes")
	}
	// The decoded image must rehydrate just like the original.
	dst, err := New(testConfig(), buildSnapProg())
	if err != nil {
		t.Fatal(err)
	}
	dj, err := dst.Rehydrate(got, 0, JobSpec{})
	if err != nil {
		t.Fatalf("rehydrate decoded image: %v", err)
	}
	if _, err := dj.Wait(); err != nil {
		t.Fatal(err)
	}
	if res := int32(uint32(dj.Root().Result)); res != snapExpected() {
		t.Errorf("checksum through the codec = %d, want %d", res, snapExpected())
	}
}

// imageGoldenHex pins the version-2 wire format of sampleImage. If
// TestImageGoldenBytes fails, the format changed: bump imageVersion and
// regenerate — do NOT edit the golden to paper over an accidental
// format break.
const imageGoldenHex = "484a494d02000600000073616d706c6539300000000000009f8601000000000031d400000000000001020000000000000001000000000000000700000000000000030000000000000000100000000000000100000000000000060000000000000000900000000000000f0000007061727469616c206f75747075740a0300000000000000000000d03f000000000000e03fe8030000000000000300000007000000436f756e746572000000000000000000000000000200000029000000000000000200000000000000020000005b4901030000000c00000001000000020000000300000000000000000000000a0000005b4c436f756e7465723b000200000000000000020000000100000000000000000000000100000004000000536e617001000000bc4d0000000000000100000004000000536e61700300000002000000040000006d61696e00000000000000000000030000007070650000000000000000000000000000ffffffff0000000000000000000000000000000000000000000000004d00000000000000010001000000010000000200000001030000007070650000000000000000000000000000000000000000000000000000000000000000000000000004000000536e6170000000000c000000030000000100000000000000020000000000000003000000000000000300000001000001000000090000000000000001000000000100000002000000773100014000000000000000030000007370650300000001010200000000000000ffffffff01000000000000000000000000000000f40100000000000000000000000000000001030000006e70650a0000006e756c6c206669656c640a000000576f726b65722e72756e040000000000000001000000000000000006000000576f726b65720100000000000000000000000000000000000000000000000000000001000000010000000000000002000000010000000100000000000000"

func TestImageGoldenBytes(t *testing.T) {
	enc := EncodeJobImage(sampleImage())
	want, err := hex.DecodeString(imageGoldenHex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Errorf("wire format drifted from the version-%d golden.\n got %s\nwant %s",
			imageVersion, hex.EncodeToString(enc), imageGoldenHex)
	}
}

// TestDecodeRejectsCorruptInput: every malformed input errors with
// ErrBadImage — never a panic, never a silent partial decode.
func TestDecodeRejectsCorruptInput(t *testing.T) {
	valid := EncodeJobImage(sampleImage())

	// Truncation at every prefix length.
	for n := 0; n < len(valid); n++ {
		if _, err := DecodeJobImage(valid[:n]); !errors.Is(err, ErrBadImage) {
			t.Fatalf("truncated to %d bytes: err = %v, want ErrBadImage", n, err)
		}
	}

	mutants := map[string]func([]byte) []byte{
		"bad magic": func(b []byte) []byte {
			b[0] = 'X'
			return b
		},
		"bad version": func(b []byte) []byte {
			b[4], b[5] = 0xff, 0xff
			return b
		},
		"trailing bytes": func(b []byte) []byte {
			return append(b, 0xde, 0xad)
		},
		"huge name length": func(b []byte) []byte {
			// The job-name length sits right after magic+version.
			b[6], b[7], b[8], b[9] = 0xff, 0xff, 0xff, 0xff
			return b
		},
	}
	for name, mutate := range mutants {
		b := mutate(append([]byte(nil), valid...))
		if _, err := DecodeJobImage(b); !errors.Is(err, ErrBadImage) {
			t.Errorf("%s: err = %v, want ErrBadImage", name, err)
		}
	}

	// Every u32 in the buffer maxed out in turn: no count may drive a
	// giant allocation or a panic.
	for off := 6; off+4 <= len(valid); off++ {
		b := append([]byte(nil), valid...)
		b[off], b[off+1], b[off+2], b[off+3] = 0xff, 0xff, 0xff, 0xff
		img, err := DecodeJobImage(b)
		if err == nil && img == nil {
			t.Fatalf("offset %d: nil image with nil error", off)
		}
	}

	// Every 0/1 byte set to 2 in turn. Where the byte was a boolean the
	// decoder must refuse it — it has one encoding per value — and where
	// it was part of something else the result still re-encodes to
	// itself. (The parent read any non-zero byte as true and wrote it
	// back as 1: FuzzDecodeJobImage's canonical-encoding failure.)
	refused := 0
	for off := 6; off < len(valid); off++ {
		if valid[off] > 1 {
			continue
		}
		b := append([]byte(nil), valid...)
		b[off] = 2
		img, err := DecodeJobImage(b)
		if err != nil {
			if !errors.Is(err, ErrBadImage) {
				t.Fatalf("offset %d set to 2: err = %v, want ErrBadImage", off, err)
			}
			refused++
		} else if re := EncodeJobImage(img); !bytes.Equal(re, b) {
			t.Fatalf("offset %d set to 2: decoded, but re-encodes differently", off)
		}
	}
	if refused == 0 {
		t.Error("no byte of the sample image was refused at value 2; it has booleans")
	}
}

func FuzzDecodeJobImage(f *testing.F) {
	f.Add(EncodeJobImage(sampleImage()))
	f.Add(EncodeJobImage(&JobImage{}))
	short := EncodeJobImage(sampleImage())
	f.Add(short[:len(short)/2])
	f.Add([]byte("HJIM"))
	f.Add([]byte{})
	// A real frozen job: the sample's class names resolve against no
	// program, so mutants of it die at validateImage's first check; these
	// bytes are accepted, and their mutants reach everything behind it.
	if _, _, img, ok := freezeAt(f, 80_000); ok {
		f.Add(EncodeJobImage(img))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := DecodeJobImage(data)
		if err != nil {
			if img != nil {
				t.Fatal("non-nil image alongside an error")
			}
			return
		}
		// Anything that decodes must re-encode to the identical bytes —
		// the format has a single canonical encoding per image.
		re := EncodeJobImage(img)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in %x\nout %x", data, re)
		}
		// And must rehydrate, on a machine over the Snap program, to an
		// error or a job — never a panic (there is no recover anywhere on
		// the path), and nothing half-admitted. Running the job is outside
		// the property: the validator's frame rows are table-tested.
		dst, err := New(testConfig(), buildSnapProg())
		if err != nil {
			t.Fatal(err)
		}
		j, err := dst.Rehydrate(img, 0, JobSpec{})
		if (j == nil) == (err == nil) {
			t.Fatalf("rehydrate returned job %v, err %v", j, err)
		}
		if err != nil && dst.LiveThreads() != 0 {
			t.Fatalf("refused image left %d live threads", dst.LiveThreads())
		}
	})
}

// TestRehydrateNilAndTinyImages: decoder-accepted but structurally
// empty images are rejected by Rehydrate, not crashed on.
func TestRehydrateNilAndTinyImages(t *testing.T) {
	v, err := New(testConfig(), buildSnapProg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Rehydrate(nil, 0, JobSpec{}); err == nil {
		t.Error("rehydrate of nil image succeeded")
	}
	if _, err := v.Rehydrate(&JobImage{}, 0, JobSpec{}); err == nil {
		t.Error("rehydrate of empty image succeeded")
	}
}
