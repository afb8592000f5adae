package jpeg

import "fmt"

// bitWriter emits an entropy-coded segment with 0xFF byte stuffing.
type bitWriter struct {
	buf  []byte
	acc  uint32
	bits int
}

func (w *bitWriter) write(code uint32, n int) {
	if n == 0 {
		return
	}
	w.acc = w.acc<<uint(n) | (code & (1<<uint(n) - 1))
	w.bits += n
	for w.bits >= 8 {
		b := byte(w.acc >> uint(w.bits-8))
		w.buf = append(w.buf, b)
		if b == 0xff {
			w.buf = append(w.buf, 0x00) // byte stuffing
		}
		w.bits -= 8
	}
}

// flush pads the final partial byte with 1-bits (spec).
func (w *bitWriter) flush() {
	if w.bits > 0 {
		pad := 8 - w.bits
		w.write(1<<uint(pad)-1, pad)
	}
}

// bitReader consumes an entropy-coded segment, removing stuffed zero
// bytes and stopping at markers. It counts consumed bits so performance
// models can charge cycles per bit.
type bitReader struct {
	data []byte
	pos  int
	acc  uint32
	bits int

	// ahead is how many of the buffered bits loadAhead took from the
	// stream before fill would have: whole real bytes at the low end of
	// acc, never padding. The serial path counts only bits-ahead as its
	// own, so it fills exactly where it always did (DESIGN.md §4.3).
	ahead int

	// BitsRead counts entropy-coded bits consumed (timing model input).
	BitsRead int64
}

// fill buffers bytes until more than 24 bits are buffered, padding with
// ones at a marker and with zeros at the end of the data. It takes the
// bytes loaded ahead first, and all of them: loadAhead took each with at
// most 24 bits buffered, so fill, which counts fewer, would have too.
func (r *bitReader) fill() error {
	r.ahead = 0
	for r.bits <= 24 {
		if r.pos >= len(r.data) {
			if r.bits > 0 {
				// Pad so trailing reads of the final partial byte work.
				r.acc <<= 8
				r.bits += 8
				continue
			}
			return fmt.Errorf("jpeg: entropy segment exhausted")
		}
		b := r.data[r.pos]
		if b == 0xff {
			if r.pos+1 < len(r.data) && r.data[r.pos+1] == 0x00 {
				r.pos += 2 // stuffed byte
			} else {
				// A marker: pad with ones; the scan is over.
				r.acc = r.acc<<8 | 0xff
				r.bits += 8
				continue
			}
		} else {
			r.pos++
		}
		r.acc = r.acc<<8 | uint32(b)
		r.bits += 8
	}
	return nil
}

// loadAhead buffers whole stream bytes, as fill does, until more than 24
// bits are buffered, but stops short of a marker and of the end of the
// data instead of padding, so that only fill ever pads.
//
//simlint:hotpath before every Huffman symbol with fewer than nine bits buffered
func (r *bitReader) loadAhead() {
	for r.bits <= 24 && r.pos < len(r.data) {
		b := r.data[r.pos]
		if b == 0xff {
			if r.pos+1 >= len(r.data) || r.data[r.pos+1] != 0x00 {
				return // a marker
			}
			r.pos += 2 // stuffed byte
		} else {
			r.pos++
		}
		r.acc = r.acc<<8 | uint32(b)
		r.bits += 8
		r.ahead += 8
	}
}

// peek returns the next n bits without consuming.
func (r *bitReader) peek(n int) (uint32, error) {
	if r.bits-r.ahead < n {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	return (r.acc >> uint(r.bits-n)) & (1<<uint(n) - 1), nil
}

// take consumes n bits.
func (r *bitReader) take(n int) (uint32, error) {
	v, err := r.peek(n)
	if err != nil {
		return 0, err
	}
	r.bits -= n
	r.BitsRead += int64(n)
	return v, nil
}

// skip consumes a code of n ≤ r.bits bits the lookahead table decoded.
// Reading it one bit at a time, the serial path would fill once its own
// bits (those not loaded ahead) ran out; skip fills at that same bit.
func (r *bitReader) skip(n int) error {
	if own := r.bits - r.ahead; n > own {
		own = max(own, 0)
		r.bits -= own
		if err := r.fill(); err != nil {
			return err
		}
		r.bits -= n - own
	} else {
		r.bits -= n
	}
	r.BitsRead += int64(n)
	return nil
}

// syncRestart byte-aligns the reader and consumes an RSTn marker
// (0xFFD0-0xFFD7) from the underlying stream.
func (r *bitReader) syncRestart() error {
	// Discard buffered bits back to the byte boundary; any bits already
	// pulled into the accumulator belong to the padding before the
	// marker. Bytes loaded ahead lie between here and the marker and
	// hold no 0xFF that a stuffed zero does not follow, so the scan finds
	// the marker it would have found from where fill stopped.
	r.acc = 0
	r.bits = 0
	r.ahead = 0
	for r.pos+1 < len(r.data) {
		if r.data[r.pos] == 0xff && r.data[r.pos+1] >= 0xd0 && r.data[r.pos+1] <= 0xd7 {
			r.pos += 2
			return nil
		}
		r.pos++
	}
	return fmt.Errorf("jpeg: missing restart marker")
}

// huffTable is a canonical Huffman code table.
type huffTable struct {
	// Encoder view: code/size per symbol.
	code [256]uint32
	size [256]int
	// Decoder view: for each code length l (1..16), the smallest code of
	// that length, the largest, and the index of its first symbol.
	minCode [17]int32
	maxCode [17]int32
	valPtr  [17]int
	vals    []byte
	// look maps the next nine bits to length<<8 | symbol of the code of
	// at most nine bits they start with, exactly as the serial loop
	// decodes it, or to 0 where that loop reads more bits or fails.
	look [1 << lookBits]uint16
}

// lookBits is how many bits one lookahead table probe covers.
const lookBits = 9

// buildHuff constructs the table from BITS/HUFFVAL per Annex C.
func buildHuff(bits [16]byte, vals []byte) *huffTable {
	t := &huffTable{vals: vals}
	code := int32(0)
	k := 0
	for l := 1; l <= 16; l++ {
		t.valPtr[l] = k
		t.minCode[l] = code
		n := int(bits[l-1])
		for i := 0; i < n; i++ {
			if k < len(vals) {
				sym := vals[k]
				t.code[sym] = uint32(code)
				t.size[sym] = l
			}
			code++
			k++
		}
		t.maxCode[l] = code - 1
		if n == 0 {
			t.maxCode[l] = -1
		}
		code <<= 1
	}
	// Codes only grow with their length, so the ranges of different
	// lengths claim disjoint entries, even in a malformed table.
	for l := 1; l <= lookBits; l++ {
		if t.maxCode[l] < 0 {
			continue
		}
		span := 1 << (lookBits - l)
		for c := t.minCode[l]; c <= min(t.maxCode[l], 1<<l-1); c++ {
			var e uint16 // an index past vals is the serial loop's error
			if idx := t.valPtr[l] + int(c-t.minCode[l]); idx < len(t.vals) {
				e = uint16(l)<<8 | uint16(t.vals[idx])
			}
			for v := int(c) * span; v < int(c+1)*span; v++ {
				t.look[v] = e
			}
		}
	}
	return t
}

// decode reads one Huffman-coded symbol: from the lookahead table when
// nine bits are buffered and begin a code of at most nine bits, else one
// bit at a time.
func (t *huffTable) decode(r *bitReader) (byte, error) {
	if r.bits < lookBits {
		r.loadAhead()
	}
	if r.bits >= lookBits {
		if e := t.look[r.acc>>uint(r.bits-lookBits)&(1<<lookBits-1)]; e != 0 {
			return byte(e), r.skip(int(e >> 8))
		}
	}
	code := int32(0)
	for l := 1; l <= 16; l++ {
		b, err := r.take(1)
		if err != nil {
			return 0, err
		}
		code = code<<1 | int32(b)
		if t.maxCode[l] >= 0 && code <= t.maxCode[l] && code >= t.minCode[l] {
			idx := t.valPtr[l] + int(code-t.minCode[l])
			if idx >= len(t.vals) {
				return 0, fmt.Errorf("jpeg: huffman index out of range")
			}
			return t.vals[idx], nil
		}
	}
	return 0, fmt.Errorf("jpeg: invalid huffman code")
}

// receiveExtend reads an s-bit magnitude value and sign-extends per F.2.2.1.
func receiveExtend(r *bitReader, s int) (int32, error) {
	if s == 0 {
		return 0, nil
	}
	v, err := r.take(s)
	if err != nil {
		return 0, err
	}
	x := int32(v)
	if x < 1<<uint(s-1) {
		x -= 1<<uint(s) - 1
	}
	return x, nil
}
