// Package checkpoint holds the byte layout and the in-memory store of
// NEX prefix checkpoints.
//
// A checkpoint is the host's: the NEX engine halted at the first device
// interaction, serialized by nex.(*Engine).SnapshotTo as a configuration
// fingerprint, the scheduler state and the thread-yield journal that
// replay turns back into goroutines and memory. No device has done
// anything by then, so a blob carries no device state; restore rebuilds
// every device by re-clocking it to the halt time. The engines are
// deterministic, so two runs of the same prefix produce byte-identical
// blobs, and a sweep whose points share a prefix runs it once and forks
// every point from the blob (SimBricks checkpoints its host the same
// way).
//
// The encoding is a fixed little-endian binary layout written through
// Encoder and read back through Decoder. It deliberately avoids
// encoding/gob and reflection: the byte layout must be a pure function
// of the logical state, with no map-iteration or type-registration
// order leaking in.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Magic identifies a checkpoint blob; Version gates layout changes.
const (
	Magic   = "NXCKPT"
	Version = 1
)

// ErrCorrupt reports a malformed or truncated blob.
var ErrCorrupt = errors.New("checkpoint: corrupt blob")

// Encoder writes the fixed little-endian checkpoint layout into a
// growing buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder whose buffer starts with the blob
// header (magic + version).
func NewEncoder() *Encoder {
	e := &Encoder{}
	e.buf = append(e.buf, Magic...)
	e.U32(Version)
	return e
}

// Bytes returns the encoded blob.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 by bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Decoder reads the layout back. Errors are sticky: after the first
// failure every subsequent read returns zero values, and Err reports
// the failure — callers validate once at the end of a section.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder validates the header and positions the decoder after it.
func NewDecoder(blob []byte) (*Decoder, error) {
	d := &Decoder{buf: blob}
	if len(blob) < len(Magic)+4 || string(blob[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	d.off = len(Magic)
	if v := d.U32(); v != Version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, Version)
	}
	return d, nil
}

// Err returns the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Done reports whether the whole blob was consumed without error.
func (d *Decoder) Done() bool { return d.err == nil && d.off == len(d.buf) }

// Remaining reports how many bytes are left unconsumed.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, d.off)
		return nil
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	return p
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int64-encoded int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 by bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }
