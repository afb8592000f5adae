package fixture

import "nexsim/internal/checkpoint"

// Clean covers every field: two encoded, one annotated transient.
type Clean struct {
	ticks uint64
	data  int64
	tmp   int //simlint:transient recomputed by Seal on restore
}

func (c *Clean) Snapshot(enc *checkpoint.Encoder) {
	enc.U64(c.ticks)
	enc.I64(c.data)
}

// NoSnap declares no encoder method, so the contract does not apply.
type NoSnap struct {
	x int
	y string
}
