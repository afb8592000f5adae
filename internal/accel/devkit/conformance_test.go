package devkit_test

import (
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/accel/acceltest"
	"nexsim/internal/accel/jpeg"
	"nexsim/internal/accel/protoacc"
	"nexsim/internal/accel/vta"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// Kit conformance: the same table (acceltest.KitConformance) runs over
// all six catalogued models — and, from its own package, over the
// examples/sketch-accel device — and must observe the same register,
// lifecycle and interrupt contract. What legitimately differs between
// models (what a task is, how long it takes) stays behind Stage.

const clk = 2 * vclock.GHz

// taskBase spaces the staged tasks 1 MB apart, descriptors in the first
// page.
func taskBase(i int) (desc, data mem.Addr) {
	return mem.Addr(0x100 * (i + 1)), mem.Addr(0x10_0000 * (i + 1))
}

func stageJPEG(m *mem.Memory, i int) mem.Addr {
	img := jpeg.NewImage(48, 32)
	for p := range img.Pix {
		img.Pix[p] = byte(p*(i+3) + p/7)
	}
	data := jpeg.Encode(img, 85, jpeg.Sub420)
	descAddr, base := taskBase(i)
	m.WriteAt(base, data)
	d := jpeg.EncodeDesc(jpeg.Desc{Src: base, SrcLen: uint32(len(data)), Dst: base + 0x8_0000})
	m.WriteAt(descAddr, d[:])
	return descAddr
}

func stageVTA(m *mem.Memory, i int) mem.Addr {
	descAddr, base := taskBase(i)
	task := vta.GemmTask{M: 16, N: 16, K: 16, A: base, B: base + 0x1_0000, C: base + 0x2_0000, Shift: 4}
	a, b := make([]int8, task.M*task.K), make([]int8, task.N*task.K)
	for j := range a {
		a[j], b[j] = int8(j+i), int8(3*j-i)
	}
	vta.StoreOperands(m, task, a, b, nil)
	prog, err := vta.Compile(task)
	if err != nil {
		panic(err)
	}
	vta.WriteProgram(m, base+0x4_0000, prog)
	d := vta.EncodeDesc(vta.Desc{Prog: base + 0x4_0000, Count: uint32(len(prog))})
	m.WriteAt(descAddr, d[:])
	return descAddr
}

var protoSchema = &protoacc.MessageDesc{Name: "Outer", Fields: []protoacc.FieldDesc{
	{Number: 1, Kind: protoacc.KindInt64},
	{Number: 2, Kind: protoacc.KindBytes},
	{Number: 3, Kind: protoacc.KindMessage, Sub: &protoacc.MessageDesc{Name: "Inner", Fields: []protoacc.FieldDesc{
		{Number: 1, Kind: protoacc.KindFixed32},
	}}},
}}

func stageProto(m *mem.Memory, i int) mem.Addr {
	msg := protoacc.NewMessage(protoSchema)
	msg.Values[0] = protoacc.Value{Int: uint64(1000 + i), Set: true}
	msg.Values[1] = protoacc.Value{Bytes: []byte("kit conformance payload"), Set: true}
	sub := protoacc.NewMessage(protoSchema.Fields[2].Sub)
	sub.Values[0] = protoacc.Value{Int: uint64(i), Set: true}
	msg.Values[2] = protoacc.Value{Msg: sub, Set: true}
	descAddr, base := taskBase(i)
	protoacc.Store(m, base, msg)
	d := protoacc.EncodeDesc(protoacc.Desc{Root: base, Out: base + 0x8_0000, Schema: 1})
	m.WriteAt(descAddr, d[:])
	return descAddr
}

// withSchema registers protoSchema on a fresh protoacc model.
func withSchema[D interface {
	accel.Device
	RegisterSchema(uint32, *protoacc.MessageDesc)
}](dev D) accel.Device {
	dev.RegisterSchema(1, protoSchema)
	return dev
}

// models pairs each accelerator's DSim model with its RTL model.
var models = [][2]acceltest.KitModel{
	{
		{Name: "jpeg", Vector: jpeg.IRQVector, Stage: stageJPEG, New: func() accel.Device { return jpeg.NewDevice(clk) }},
		{Name: "jpeg-rtl", Vector: jpeg.IRQVector, Stage: stageJPEG, New: func() accel.Device { return jpeg.NewRTLDevice(clk) }},
	},
	{
		{Name: "vta", Vector: vta.IRQVector, Stage: stageVTA, New: func() accel.Device { return vta.NewDevice(clk) }},
		{Name: "vta-rtl", Vector: vta.IRQVector, Stage: stageVTA, New: func() accel.Device { return vta.NewRTLDevice(clk) }},
	},
	{
		{Name: "protoacc", Vector: protoacc.IRQVector, Stage: stageProto, New: func() accel.Device { return withSchema(protoacc.NewDevice(clk)) }},
		{Name: "protoacc-rtl", Vector: protoacc.IRQVector, Stage: stageProto, New: func() accel.Device { return withSchema(protoacc.NewRTLDevice(clk)) }},
	},
}

func TestKitConformance(t *testing.T) {
	for _, pair := range models {
		for _, km := range pair {
			if name := km.New().Name(); name != km.Name {
				t.Errorf("device named %q, want %q", name, km.Name)
			}
			acceltest.KitConformance(t, km)
		}
		t.Run(pair[0].Name+"/dsim and rtl report the same lifecycle", func(t *testing.T) {
			acceltest.KitPairConformance(t, pair[0], pair[1])
		})
	}
}
