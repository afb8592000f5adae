package protoacc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"nexsim/internal/mem"
	"nexsim/internal/xrand"
)

// Unmarshal parses wire-format data against a descriptor, so tests can
// check the serializer end to end.
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

func testDesc() *MessageDesc {
	inner := &MessageDesc{
		Name: "Inner",
		Fields: []FieldDesc{
			{Number: 1, Kind: KindInt64},
			{Number: 2, Kind: KindBytes},
		},
	}
	return &MessageDesc{
		Name: "Outer",
		Fields: []FieldDesc{
			{Number: 1, Kind: KindInt64},
			{Number: 2, Kind: KindSint64},
			{Number: 3, Kind: KindFixed64},
			{Number: 4, Kind: KindFixed32},
			{Number: 5, Kind: KindBytes},
			{Number: 6, Kind: KindMessage, Sub: inner},
		},
	}
}

func fillMessage(d *MessageDesc) *Message {
	m := NewMessage(d)
	m.Values[0] = Value{Int: 12345, Set: true}
	neg := int64(-99)
	m.Values[1] = Value{Int: uint64(neg), Set: true}
	m.Values[2] = Value{Int: 0xdeadbeefcafe, Set: true}
	m.Values[3] = Value{Int: 0x1234, Set: true}
	m.Values[4] = Value{Bytes: []byte("payload bytes here"), Set: true}
	sub := NewMessage(d.Fields[5].Sub)
	sub.Values[0] = Value{Int: 7, Set: true}
	sub.Values[1] = Value{Bytes: []byte("inner"), Set: true}
	m.Values[5] = Value{Msg: sub, Set: true}
	return m
}

func TestMarshalRoundTrip(t *testing.T) {
	d := testDesc()
	m := fillMessage(d)
	wire := Marshal(m)
	got, err := Unmarshal(d, wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Values[0].Int != 12345 {
		t.Errorf("int64 = %d", got.Values[0].Int)
	}
	if int64(got.Values[1].Int) != -99 {
		t.Errorf("sint64 = %d", int64(got.Values[1].Int))
	}
	if got.Values[2].Int != 0xdeadbeefcafe {
		t.Errorf("fixed64 = %#x", got.Values[2].Int)
	}
	if !bytes.Equal(got.Values[4].Bytes, []byte("payload bytes here")) {
		t.Errorf("bytes = %q", got.Values[4].Bytes)
	}
	if got.Values[5].Msg == nil || got.Values[5].Msg.Values[0].Int != 7 {
		t.Error("nested message lost")
	}
	if !bytes.Equal(got.Values[5].Msg.Values[1].Bytes, []byte("inner")) {
		t.Error("nested bytes lost")
	}
}

func TestSerializedSizeMatches(t *testing.T) {
	m := fillMessage(testDesc())
	if got, want := SerializedSize(m), len(Marshal(m)); got != want {
		t.Fatalf("SerializedSize = %d, Marshal = %d", got, want)
	}
}

func TestUnsetFieldsSkipped(t *testing.T) {
	d := testDesc()
	m := NewMessage(d)
	m.Values[0] = Value{Int: 1, Set: true}
	wire := Marshal(m)
	got, err := Unmarshal(d, wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Values[4].Set {
		t.Fatal("unset field appeared")
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(v int64) bool {
		z := zigzag(v)
		back := int64(z>>1) ^ -int64(z&1)
		return back == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarintProperty(t *testing.T) {
	f := func(v uint64) bool {
		enc := putVarint(nil, v)
		if len(enc) != varintLen(v) {
			return false
		}
		var dec uint64
		shift := 0
		for _, b := range enc {
			dec |= uint64(b&0x7f) << shift
			shift += 7
		}
		return dec == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStoreLayout(t *testing.T) {
	m := fillMessage(testDesc())
	pm := mem.New(0)
	lay := Store(pm, 0x1000, m)
	if lay.Fields != 8 { // 6 outer + 2 inner
		t.Fatalf("Fields = %d, want 8", lay.Fields)
	}
	if lay.Pointers != 3 { // 2 byte arrays + 1 submessage
		t.Fatalf("Pointers = %d, want 3", lay.Pointers)
	}
	if lay.DataLen != int64(len("payload bytes here")+len("inner")) {
		t.Fatalf("DataLen = %d", lay.DataLen)
	}
	if lay.Total <= 0 {
		t.Fatal("empty layout")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	d := testDesc()
	if _, err := Unmarshal(d, []byte{0xff}); err == nil {
		t.Fatal("bad key accepted")
	}
	// Field 9 does not exist.
	if _, err := Unmarshal(d, putVarint(nil, 9<<3|0)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestUnmarshalNeverPanics corrupts valid wire bytes; Unmarshal must
// error or succeed, never panic.
func TestUnmarshalNeverPanics(t *testing.T) {
	d := testDesc()
	base := Marshal(fillMessage(d))
	rng := xrand.New(99)
	for trial := 0; trial < 500; trial++ {
		data := append([]byte(nil), base...)
		switch trial % 3 {
		case 0:
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		case 1:
			data = data[:rng.Intn(len(data))]
		case 2:
			for k := 0; k < 3; k++ {
				data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d panicked: %v", trial, r)
				}
			}()
			Unmarshal(d, data)
		}()
	}
}
