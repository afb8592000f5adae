package dsim

import (
	"bytes"
	"testing"

	"nexsim/internal/checkpoint"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// TestSnapshotRestoreDifferential: drive a device partway through two
// in-flight tasks (some DMAs replayed, some still queued), snapshot,
// restore into a fresh identically built device, then run both to
// completion and through a third task. DMA timings, IRQs, memory
// contents, stats and register state must all agree.
func TestSnapshotRestoreDifferential(t *testing.T) {
	const lat = 100 * vclock.Nanosecond
	src := mem.Addr(0x1000)
	dst := mem.Addr(0x2000)
	input := []byte("differential dsim")
	n := len(input)

	hA, dA := setup(lat)
	hA.mem.WriteAt(src, input)
	dA.start(0, copyTask{src: src, dst: dst, n: n})
	dA.start(0, copyTask{src: src, dst: dst + 0x100, n: n})
	// 150ns: the first LOAD has replayed (its queue head moved), the
	// rest are still pending — a genuinely mid-task snapshot.
	dA.Advance(vclock.Time(150 * vclock.Nanosecond))

	enc := checkpoint.NewEncoder()
	dA.SnapshotTo(enc)

	hB, dB := setup(lat)
	// The host memory image at the snapshot point is the host layer's
	// responsibility; mirror it here.
	mirror := func(addr mem.Addr) {
		buf := make([]byte, n)
		hA.mem.ReadAt(addr, buf)
		hB.mem.WriteAt(addr, buf)
	}
	mirror(src)
	mirror(dst)
	mirror(dst + 0x100)
	dB.doneReg = dA.doneReg

	dec, err := checkpoint.NewDecoder(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := dB.RestoreFrom(dec); err != nil {
		t.Fatal(err)
	}
	if !dec.Done() {
		t.Fatalf("blob not fully consumed (err=%v)", dec.Err())
	}
	if dB.Now() != dA.Now() {
		t.Fatalf("restored clock %v, want %v", dB.Now(), dA.Now())
	}
	if dB.Pending("LOAD") != dA.Pending("LOAD") || dB.Pending("STORE") != dA.Pending("STORE") {
		t.Fatalf("restored queue depths differ: LOAD %d/%d STORE %d/%d",
			dB.Pending("LOAD"), dA.Pending("LOAD"), dB.Pending("STORE"), dA.Pending("STORE"))
	}

	preDMAs := len(hA.dmas)
	preIRQs := len(hA.irqs)
	end := 10 * vclock.Time(vclock.Microsecond)
	dA.Advance(end)
	dB.Advance(end)

	// A third task after the restore point must behave identically too.
	dA.start(end, copyTask{src: src, dst: dst + 0x200, n: n})
	dB.start(end, copyTask{src: src, dst: dst + 0x200, n: n})
	dA.Advance(2 * end)
	dB.Advance(2 * end)

	if got, want := hB.dmas, hA.dmas[preDMAs:]; len(got) != len(want) {
		t.Fatalf("DMA counts diverged: %d vs %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("DMA %d completion diverged: %v vs %v", i, got[i], want[i])
			}
		}
	}
	if got, want := hB.irqs, hA.irqs[preIRQs:]; len(got) != len(want) {
		t.Fatalf("IRQ counts diverged: %d vs %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("IRQ %d diverged: %v vs %v", i, got[i], want[i])
			}
		}
	}
	for _, off := range []mem.Addr{0, 0x100, 0x200} {
		a := make([]byte, n)
		b := make([]byte, n)
		hA.mem.ReadAt(dst+off, a)
		hB.mem.ReadAt(dst+off, b)
		if !bytes.Equal(a, b) {
			t.Fatalf("output at +%#x diverged: %q vs %q", off, a, b)
		}
	}
	if dA.Stats() != dB.Stats() {
		t.Fatalf("stats diverged:\n A %+v\n B %+v", dA.Stats(), dB.Stats())
	}
	if dA.doneReg != dB.doneReg {
		t.Fatalf("doneReg diverged: %d vs %d", dA.doneReg, dB.doneReg)
	}
}

// TestSnapshotDropsDrainedQueues: replayed FIFO prefixes must not leak
// into the encoding — equal pending work encodes identically no matter
// how many tasks already churned through a queue's backing array.
func TestSnapshotDropsDrainedQueues(t *testing.T) {
	src := mem.Addr(0x1000)
	h1, d1 := setup(0)
	h1.mem.WriteAt(src, []byte{1, 2, 3, 4})

	// Device 1: one full task drained, then a fresh recording.
	d1.start(0, copyTask{src: src, dst: 0x2000, n: 4})
	d1.Advance(vclock.Time(vclock.Microsecond))
	d1r := d1.Recorder()
	d1r.WriteDMA("STORE", 0x3000, []byte{9, 9})

	// Device 2: same pending record, no history; align the stats fields
	// that legitimately differ with history.
	h2, d2 := setup(0)
	h2.mem.WriteAt(src, []byte{1, 2, 3, 4})
	d2r := d2.Recorder()
	d2r.WriteDMA("STORE", 0x3000, []byte{9, 9})
	d2.now = d1.now
	d2.SetLifecycle(d1.Lifecycle())
	d2.Net.RestoreFrom(mustDec(t, encodeNet(d1)))

	e1, e2 := checkpoint.NewEncoder(), checkpoint.NewEncoder()
	d1.SnapshotTo(e1)
	d2.SnapshotTo(e2)
	if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
		t.Fatal("equal pending state encoded differently (drained prefix leaked)")
	}
}

func encodeNet(d *copyDev) []byte {
	enc := checkpoint.NewEncoder()
	d.Net.SnapshotTo(enc)
	return enc.Bytes()
}

func mustDec(t *testing.T, blob []byte) *checkpoint.Decoder {
	t.Helper()
	dec, err := checkpoint.NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func TestRestoreRejectsBadBlobs(t *testing.T) {
	h, d := setup(0)
	h.mem.WriteAt(0x1000, []byte{1, 2, 3})
	d.start(0, copyTask{src: 0x1000, dst: 0x2000, n: 3})
	enc := checkpoint.NewEncoder()
	d.SnapshotTo(enc)
	blob := enc.Bytes()

	// Wrong device: different name.
	_, other := setup(0)
	other.Bank.Init("otherdev", 1, other)
	if err := other.RestoreFrom(mustDec(t, blob)); err == nil {
		t.Fatal("restore accepted mismatched device name")
	}

	// Truncated blob.
	_, fresh := setup(0)
	if err := fresh.RestoreFrom(mustDec(t, blob[:len(blob)-9])); err == nil {
		t.Fatal("restore accepted truncated blob")
	}
}
