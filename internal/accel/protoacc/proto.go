// Package protoacc implements the Protoacc protobuf-serialization
// accelerator stack of the paper's evaluation (§6.1, modeled on Google's
// Protoacc [31]): a protocol-buffers wire-format serializer (the
// functionality track), descriptor-driven message model, an LPN
// performance model with parallel field-serialization units, an
// RTL-style cycle model, and the asynchronous software driver.
//
// Only the serializer is modeled — the paper does the same ("we only
// consider Protoacc's serializer... deserialization is sequential and
// thus not interesting").
package protoacc

import (
	"encoding/binary"
	"fmt"

	"nexsim/internal/mem"
)

// WireType is a protobuf wire type.
type WireType int

const (
	WireVarint WireType = 0
	WireI64    WireType = 1
	WireBytes  WireType = 2
	WireI32    WireType = 5
)

// FieldKind is the schema-level type of a field.
type FieldKind int

const (
	KindInt64  FieldKind = iota // varint
	KindSint64                  // zigzag varint
	KindFixed64
	KindFixed32
	KindBytes   // length-delimited
	KindMessage // nested message
)

// Wire returns the field kind's wire type.
func (k FieldKind) Wire() WireType {
	switch k {
	case KindInt64, KindSint64:
		return WireVarint
	case KindFixed64:
		return WireI64
	case KindFixed32:
		return WireI32
	default:
		return WireBytes
	}
}

// FieldDesc describes one field of a message type.
type FieldDesc struct {
	Number int
	Kind   FieldKind
	Sub    *MessageDesc // for KindMessage
}

// MessageDesc is a message type: an ordered field list (a miniature
// protobuf descriptor, which in the real stack comes from the protobuf
// compiler).
type MessageDesc struct {
	Name   string
	Fields []FieldDesc
}

// Value is a field value in an in-memory message.
type Value struct {
	Int   uint64   // scalar kinds (pre-zigzag for sint)
	Bytes []byte   // KindBytes
	Msg   *Message // KindMessage
	Set   bool
}

// Message is an in-memory message instance: the "object representation"
// Protoacc serializes from. Values are indexed parallel to the
// descriptor's fields.
type Message struct {
	Desc   *MessageDesc
	Values []Value
}

// NewMessage allocates an empty instance of a type.
func NewMessage(d *MessageDesc) *Message {
	return &Message{Desc: d, Values: make([]Value, len(d.Fields))}
}

// zigzag encodes a signed value for sint fields.
func zigzag(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

// putVarint appends a base-128 varint.
func putVarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// varintLen reports the encoded size of a varint.
func varintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Marshal serializes a message to the protobuf wire format. This is the
// CPU reference implementation (what the Xeon baseline runs) and also
// the accelerator's functional model.
func Marshal(m *Message) []byte {
	return appendMessage(nil, m)
}

func appendMessage(dst []byte, m *Message) []byte {
	for i, f := range m.Desc.Fields {
		v := &m.Values[i]
		if !v.Set {
			continue
		}
		key := uint64(f.Number)<<3 | uint64(f.Kind.Wire())
		dst = putVarint(dst, key)
		switch f.Kind {
		case KindInt64:
			dst = putVarint(dst, v.Int)
		case KindSint64:
			dst = putVarint(dst, zigzag(int64(v.Int)))
		case KindFixed64:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v.Int)
			dst = append(dst, b[:]...)
		case KindFixed32:
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(v.Int))
			dst = append(dst, b[:]...)
		case KindBytes:
			dst = putVarint(dst, uint64(len(v.Bytes)))
			dst = append(dst, v.Bytes...)
		case KindMessage:
			sub := appendMessage(nil, v.Msg)
			dst = putVarint(dst, uint64(len(sub)))
			dst = append(dst, sub...)
		}
	}
	return dst
}

// SerializedSize computes the wire size without serializing.
func SerializedSize(m *Message) int {
	n := 0
	for i, f := range m.Desc.Fields {
		v := &m.Values[i]
		if !v.Set {
			continue
		}
		n += varintLen(uint64(f.Number)<<3 | uint64(f.Kind.Wire()))
		switch f.Kind {
		case KindInt64:
			n += varintLen(v.Int)
		case KindSint64:
			n += varintLen(zigzag(int64(v.Int)))
		case KindFixed64:
			n += 8
		case KindFixed32:
			n += 4
		case KindBytes:
			n += varintLen(uint64(len(v.Bytes))) + len(v.Bytes)
		case KindMessage:
			sub := SerializedSize(v.Msg)
			n += varintLen(uint64(sub)) + sub
		}
	}
	return n
}

// Unmarshal parses wire-format data against a descriptor; used by tests
// to verify serializer correctness end to end.
func Unmarshal(d *MessageDesc, data []byte) (*Message, error) {
	m := NewMessage(d)
	pos := 0
	for pos < len(data) {
		key, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("protoacc: bad key at %d", pos)
		}
		pos += n
		num := int(key >> 3)
		wire := WireType(key & 7)
		idx := -1
		for i, f := range d.Fields {
			if f.Number == num {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("protoacc: unknown field %d", num)
		}
		f := d.Fields[idx]
		v := &m.Values[idx]
		v.Set = true
		switch wire {
		case WireVarint:
			x, n := binary.Uvarint(data[pos:])
			if n <= 0 {
				return nil, fmt.Errorf("protoacc: bad varint")
			}
			pos += n
			if f.Kind == KindSint64 {
				v.Int = uint64(int64(x>>1) ^ -int64(x&1))
			} else {
				v.Int = x
			}
		case WireI64:
			if pos+8 > len(data) {
				return nil, fmt.Errorf("protoacc: short fixed64")
			}
			v.Int = binary.LittleEndian.Uint64(data[pos:])
			pos += 8
		case WireI32:
			if pos+4 > len(data) {
				return nil, fmt.Errorf("protoacc: short fixed32")
			}
			v.Int = uint64(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
		case WireBytes:
			l, n := binary.Uvarint(data[pos:])
			if n <= 0 || pos+n+int(l) > len(data) {
				return nil, fmt.Errorf("protoacc: bad length")
			}
			pos += n
			payload := data[pos : pos+int(l)]
			pos += int(l)
			if f.Kind == KindMessage {
				sub, err := Unmarshal(f.Sub, payload)
				if err != nil {
					return nil, err
				}
				v.Msg = sub
			} else {
				v.Bytes = append([]byte(nil), payload...)
			}
		default:
			return nil, fmt.Errorf("protoacc: wire type %d unsupported", wire)
		}
	}
	return m, nil
}

// MemLayout flattens a message into simulated physical memory using
// Protoacc's object layout: a contiguous block per message with scalar
// slots and pointers to out-of-line byte arrays and submessages. The
// accelerator walks this layout with DMAs.
type MemLayout struct {
	Root     mem.Addr
	Total    int   // bytes occupied
	Pointers int   // pointer fields chased
	Fields   int   // set fields across the tree
	DataLen  int64 // out-of-line byte-array payload
}

// Image flattens the message tree into the bytes Store places at base.
// The slot layout per message: for each field, 16 bytes (tag word +
// value/pointer word). Pointers are absolute, so the image is a pure
// function of the (message, base) pair and of nothing else.
func Image(base mem.Addr, msg *Message) ([]byte, MemLayout) {
	lay := MemLayout{Root: base}
	var img []byte
	alloc := func(n int) int {
		at := len(img)
		img = append(img, make([]byte, n)...)
		return at
	}
	put := func(off int, v uint64) { binary.LittleEndian.PutUint64(img[off:], v) }
	var place func(msg *Message) int
	place = func(msg *Message) int {
		at := alloc(16 * len(msg.Desc.Fields))
		for i, f := range msg.Desc.Fields {
			v := &msg.Values[i]
			if !v.Set {
				continue // the slot stays zero
			}
			slot := at + 16*i
			lay.Fields++
			put(slot, uint64(f.Number)<<8|uint64(f.Kind)|1<<63)
			switch f.Kind {
			case KindBytes:
				ptr := alloc((len(v.Bytes)+15)/16*16 + 16)
				put(slot+8, uint64(base)+uint64(ptr)|uint64(len(v.Bytes))<<40)
				copy(img[ptr:], v.Bytes)
				lay.Pointers++
				lay.DataLen += int64(len(v.Bytes))
			case KindMessage:
				put(slot+8, uint64(base)+uint64(place(v.Msg)))
				lay.Pointers++
			default:
				put(slot+8, v.Int)
			}
		}
		return at
	}
	place(msg)
	lay.Total = len(img)
	return img, lay
}

// Store writes the message tree's Image into memory starting at base and
// returns its layout.
func Store(m *mem.Memory, base mem.Addr, msg *Message) MemLayout {
	img, lay := Image(base, msg)
	m.WriteAt(base, img)
	return lay
}
