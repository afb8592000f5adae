package main

import (
	"testing"

	"nexsim/internal/accel"
	"nexsim/internal/accel/acceltest"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// TestKitConformance: the sketched device writes no register or
// lifecycle code, so it must pass the same table as the six catalogued
// models (internal/accel/devkit's TestKitConformance).
func TestKitConformance(t *testing.T) {
	acceltest.KitConformance(t, acceltest.KitModel{
		Name:   "filter2d",
		Vector: filterIRQ,
		New:    func() accel.Device { return newFilterDevice(2*vclock.GHz, 4) },
		Stage: func(m *mem.Memory, i int) mem.Addr {
			const w, h = 16, 8
			descAddr, base := mem.Addr(0x100*(i+1)), mem.Addr(0x10_0000*(i+1))
			raster := make([]byte, w*h*3)
			for p := range raster {
				raster[p] = byte(p + i)
			}
			m.WriteAt(base, raster)
			desc := encodeFilterDesc(base, base+0x8_0000, w, h)
			m.WriteAt(descAddr, desc[:])
			return descAddr
		},
	})
}
