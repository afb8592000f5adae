package protoacc

import (
	"bytes"
	"testing"

	"nexsim/internal/accel/acceltest"
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// TestNoStalePlanAfterPayloadWrite: the plan memo keys a message's byte
// arrays by the sums of the pages they lie in. The image is mapped from a
// blob as the workload stages it, a task runs, one byte of the innermost
// array is flipped through WriteAt (unsharing its page), and the same
// descriptor runs again on a fresh device of each model: the key must
// differ and the wire bytes must be Marshal's for the flipped message.
func TestNoStalePlanAfterPayloadWrite(t *testing.T) {
	for name, mk := range map[string]func(h *acceltest.Host) protoDevice{
		"dsim": func(h *acceltest.Host) protoDevice { d := NewDevice(2 * vclock.GHz); d.SetHost(h); return d },
		"rtl":  func(h *acceltest.Host) protoDevice { d := NewRTLDevice(2 * vclock.GHz); d.SetHost(h); return d },
	} {
		t.Run(name, func(t *testing.T) {
			schema := testDesc()
			msg := fillMessage(schema)
			const root, out = 0x10000, 0x80000
			img, _ := Image(root, msg)
			h := &acceltest.Host{Mem: mem.New(0), Lat: 40 * vclock.Nanosecond}
			h.Mem.Map(root, mem.NewBlob(img))
			db := EncodeDesc(Desc{Root: root, Out: out, Schema: 1})
			h.Mem.WriteAt(0x1000, db[:])
			run := func() []byte {
				dev := mk(h)
				dev.RegisterSchema(1, schema)
				dev.RegWrite(0, devkit.RegDoorbell, 0x1000)
				drain(dev)
				return readWire(h, out)
			}
			if !bytes.Equal(run(), Marshal(msg)) {
				t.Fatal("wire output over a mapped image differs from Marshal")
			}
			before := planKey(h, root, schema)

			inner := msg.Values[5].Msg.Values[1].Bytes
			at := bytes.Index(img, inner)
			if at < 0 {
				t.Fatal("the image does not hold the inner byte array")
			}
			inner[len(inner)-1] ^= 0x20
			h.Mem.WriteAt(root+mem.Addr(at+len(inner)-1), inner[len(inner)-1:])
			if st := h.Mem.Stats(); st.Unshared != 1 {
				t.Fatalf("a one-byte write into the mapped image unshared %d pages, want 1", st.Unshared)
			}
			if planKey(h, root, schema) == before {
				t.Fatal("the plan key did not move with a payload byte")
			}
			if !bytes.Equal(run(), Marshal(msg)) {
				t.Fatal("wire output after the write is not Marshal of the changed message: a stale plan was served")
			}
		})
	}
}

// The converse: an image mapped from a blob and the same image written
// with Store (private pages, hashed in place) give one key.
func TestPlanKeyIgnoresStagingPath(t *testing.T) {
	schema := testDesc()
	msg := fillMessage(schema)
	const root = 0x10000
	img, _ := Image(root, msg)
	mapped, written := mem.New(0), mem.New(0)
	mapped.Map(root, mem.NewBlob(img))
	Store(written, root, msg)
	if k1, k2 := planKey(&acceltest.Host{Mem: mapped}, root, schema), planKey(&acceltest.Host{Mem: written}, root, schema); k1 != k2 {
		t.Fatalf("byte-equal images key differently: mapped %#x, written %#x", k1, k2)
	}
}
