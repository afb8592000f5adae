package jpeg

import (
	"bytes"
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/accel/acceltest"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// TestNoStaleDecodeAfterStreamWrite: the decode memo is keyed on the sums
// of the pages the bitstream lies in. The stream is mapped from a blob as
// the workload stages it, a task runs, one byte of its quantization table
// is changed through WriteAt (unsharing its page), and the same descriptor
// runs again on a fresh device of each model: the key must differ and the
// raster must be the uncached decoder's for the changed stream.
func TestNoStaleDecodeAfterStreamWrite(t *testing.T) {
	for name, mk := range map[string]func(h accel.Host) accel.Device{
		"dsim": func(h accel.Host) accel.Device { d := NewDevice(2 * vclock.GHz); d.SetHost(h); return d },
		"rtl":  func(h accel.Host) accel.Device { d := NewRTLDevice(2 * vclock.GHz); d.SetHost(h); return d },
	} {
		t.Run(name, func(t *testing.T) {
			data := Encode(synthImage(48, 32, 77), 85, Sub420)
			m := mem.New(0)
			desc := Desc{Src: 0x10000, SrcLen: uint32(len(data)), Dst: 0x40000}
			m.Map(desc.Src, mem.NewBlob(data))
			db := EncodeDesc(desc)
			m.WriteAt(0x1000, db[:])
			check := func() {
				t.Helper()
				h := &acceltest.Host{Mem: m, Lat: 400 * vclock.Nanosecond}
				runTask(t, mk(h), h, 0x1000)
				want, _, err := decodeUncached(data)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]byte, len(want.Pix))
				m.ReadAt(desc.Dst, got)
				if !bytes.Equal(got, want.Pix) {
					t.Fatal("device raster differs from the uncached decode of the stream in memory")
				}
			}
			check()
			before := streamKey(&acceltest.Host{Mem: m}, desc)

			dqt := bytes.Index(data, []byte{0xff, 0xdb})
			if dqt < 0 {
				t.Fatal("no DQT segment in the encoded stream")
			}
			at := dqt + 5 // marker, length, table id, then the first quantizer
			data[at]++
			m.WriteAt(desc.Src+mem.Addr(at), data[at:at+1])
			if st := m.Stats(); st.Unshared != 1 {
				t.Fatalf("a one-byte write into the mapped stream unshared %d pages, want 1", st.Unshared)
			}
			if streamKey(&acceltest.Host{Mem: m}, desc) == before {
				t.Fatal("the decode key did not move with a stream byte")
			}
			check()
		})
	}
}

// The converse: a stream mapped from a blob and the same stream written
// with WriteAt give one key — and the same stream at another offset into
// its page, whose page sums differ anyway, does not.
func TestStreamKeyIgnoresStagingPath(t *testing.T) {
	data := Encode(synthImage(40, 24, 78), 80, Sub444)
	desc := Desc{Src: 0x20000, SrcLen: uint32(len(data))}
	mapped, written := mem.New(0), mem.New(0)
	mapped.Map(desc.Src, mem.NewBlob(data))
	written.WriteAt(desc.Src, data)
	k1, k2 := streamKey(&acceltest.Host{Mem: mapped}, desc), streamKey(&acceltest.Host{Mem: written}, desc)
	if k1 != k2 {
		t.Fatalf("byte-equal streams key differently: mapped %#x, written %#x", k1, k2)
	}
	written.WriteAt(0x30000+8, data)
	if k3 := streamKey(&acceltest.Host{Mem: written}, Desc{Src: 0x30000 + 8, SrcLen: desc.SrcLen}); k3 == k1 {
		t.Fatal("a stream at another page offset keys like the aligned one")
	}
}
