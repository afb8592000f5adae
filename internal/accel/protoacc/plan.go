package protoacc

import (
	"encoding/binary"
	"unsafe"

	"nexsim/internal/accel"
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
)

// Timing parameters of the modeled serializer (Protoacc-like): several
// parallel field-serialization units, a memory unit for object and data
// fetches, and a streaming output writer. The models read the unit
// counts and per-stage constants; only the plan (buildPlan) turns the
// per-item parameters into cycles, and the models read each field's and
// task's.
const (
	fieldUnits       = 4
	objFetchUnits    = 2
	scalarBaseCycles = 6  // key + varint encode
	dataCopyBytesCyc = 8  // streaming copy bytes/cycle
	outWriteBytesCyc = 16 // output writer bytes/cycle
	descFetchCycles  = 8
	dispatchCycles   = 2
)

// planMemo memoizes the entire task plan per (root address, schema,
// object graph content) hash. The node table and the wire output are
// pure functions of those inputs — the blocks embed every submessage and
// data pointer, so hashing the root address, the blocks and the content
// sums of the pages the byte arrays lie in pins the full layout without
// reading one payload byte — and the same staged batches are serialized by the
// LPN model, the RTL-style model, repeated harness runs, and every point
// of a latency sweep; memoizing removes redundant host compute without
// affecting any simulated timing. Cached plans are shared read-only.
var planMemo = devkit.NewMemo[uint64](func(p *taskPlan) int64 {
	cost := int64(len(p.out))
	for i := range p.nodes {
		n := &p.nodes[i]
		cost += int64(unsafe.Sizeof(*n)) + int64(len(n.fields))*int64(unsafe.Sizeof(planField{})) + 8*int64(len(n.children))
	}
	return cost
})

// descFP fingerprints a schema's wire-relevant structure (field numbers
// and kinds, recursively): block bytes alone do not determine the wire
// encoding.
func descFP(d *MessageDesc) uint64 {
	h := mem.Mix(0, uint64(len(d.Fields)))
	for _, f := range d.Fields {
		h = mem.Mix(h, uint64(f.Number)<<8|uint64(f.Kind))
		if f.Sub != nil {
			h = mem.Mix(h, descFP(f.Sub))
		}
	}
	return h
}

// planNode is one message block to fetch.
type planNode struct {
	addr   mem.Addr
	size   int
	fields []planField
	// children are the submessage nodes discovered in this block: the
	// hardware cannot fetch them before this block's response arrives
	// (pointer chasing — the latency dependence §6.4's sweep exposes).
	children []int
}

// planField is one set field's work: its field unit's cycles and, for a
// data field, the payload it fetches first.
type planField struct {
	cycles    int64
	dataBytes int64
	dataAddr  mem.Addr
}

// taskPlan is everything both performance models need to execute one
// serialization task.
type taskPlan struct {
	nodes       []planNode
	out         []byte // u32 length + wire bytes
	storeCycles int64  // the output writer's cycles for out
}

// cachedPlan returns the (shared, read-only) plan for the layout rooted
// at root, building and caching it on first sight.
func cachedPlan(host accel.Host, root, outAddr mem.Addr, schema *MessageDesc) *taskPlan {
	return planMemo.Get(planKey(host, root, schema), func() *taskPlan {
		read := func(addr mem.Addr, size int) []byte {
			buf := make([]byte, size)
			host.ZeroCostRead(addr, buf)
			return buf
		}
		p := buildPlan(read, read, root, outAddr, schema)
		return &p
	})
}

// planKey computes the plan-memo key for the layout rooted at root: the
// root address, the schema fingerprint, every block the plan walk would
// fetch, byte for byte in walk order, and for every byte array the
// content sum of the pages it overlaps — the block holds its address and
// length, so together they cover a superset of the array's bytes.
func planKey(host accel.Host, root mem.Addr, schema *MessageDesc) uint64 {
	key := mem.Mix(descFP(schema), uint64(root))
	var visit func(addr mem.Addr, desc *MessageDesc)
	visit = func(addr mem.Addr, desc *MessageDesc) {
		block := make([]byte, 16*len(desc.Fields))
		host.ZeroCostRead(addr, block)
		key = mem.Hash(key, block)
		type subref struct {
			addr mem.Addr
			desc *MessageDesc
		}
		var subs []subref
		for i, f := range desc.Fields {
			tag := binary.LittleEndian.Uint64(block[16*i:])
			if tag&(1<<63) == 0 {
				continue
			}
			val := binary.LittleEndian.Uint64(block[16*i+8:])
			switch f.Kind {
			case KindBytes:
				key = mem.Mix(key, host.ZeroCostSum(mem.Addr(val&(1<<40-1)), int(val>>40)))
			case KindMessage:
				subs = append(subs, subref{mem.Addr(val), f.Sub})
			}
		}
		for _, s := range subs {
			visit(s.addr, s.desc)
		}
	}
	visit(root, schema)
	return key
}

// buildPlan walks the Store memory layout (via readObj/readData, so the
// caller chooses whether reads are recorded as DMAs), reconstructs the
// message, serializes it, and returns the per-node/per-field plan in the
// preorder the hardware processes blocks.
func buildPlan(readObj, readData func(addr mem.Addr, size int) []byte,
	root mem.Addr, outAddr mem.Addr, schema *MessageDesc) taskPlan {

	var nodes []planNode
	var visit func(addr mem.Addr, desc *MessageDesc) (*Message, int)
	visit = func(addr mem.Addr, desc *MessageDesc) (*Message, int) {
		blockLen := 16 * len(desc.Fields)
		block := readObj(addr, blockLen)
		msg := NewMessage(desc)
		node := planNode{addr: addr, size: blockLen}
		type subref struct {
			idx  int
			addr mem.Addr
		}
		var subs []subref
		for i, f := range desc.Fields {
			tag := binary.LittleEndian.Uint64(block[16*i:])
			if tag&(1<<63) == 0 {
				continue
			}
			val := binary.LittleEndian.Uint64(block[16*i+8:])
			v := &msg.Values[i]
			v.Set = true
			fi := planField{}
			var encBytes int
			switch f.Kind {
			case KindBytes:
				ptr := mem.Addr(val & (1<<40 - 1))
				length := int(val >> 40)
				v.Bytes = readData(ptr, length)
				fi.dataBytes = int64(length)
				fi.dataAddr = ptr
				encBytes = varintLen(uint64(length)) + length + 1
			case KindMessage:
				subs = append(subs, subref{i, mem.Addr(val)})
				continue // submessages are their own nodes
			default:
				v.Int = val
				encBytes = varintLen(val) + 1
			}
			fi.cycles = scalarBaseCycles + int64(encBytes)
			if fi.dataBytes > 0 {
				// A data field streams its payload instead.
				fi.cycles = scalarBaseCycles + fi.dataBytes/dataCopyBytesCyc
			}
			node.fields = append(node.fields, fi)
		}
		nodes = append(nodes, node)
		self := len(nodes) - 1
		for _, s := range subs {
			sub, childIdx := visit(s.addr, desc.Fields[s.idx].Sub)
			msg.Values[s.idx].Msg = sub
			nodes[self].children = append(nodes[self].children, childIdx)
		}
		return msg, self
	}
	msg, _ := visit(root, schema)

	wire := Marshal(msg)
	out := make([]byte, 4+len(wire))
	binary.LittleEndian.PutUint32(out, uint32(len(wire)))
	copy(out[4:], wire)
	return taskPlan{nodes: nodes, out: out, storeCycles: 4 + int64(len(out))/outWriteBytesCyc}
}
