package protoacc

import (
	"encoding/binary"
	"fmt"

	"nexsim/internal/accel/devkit"
	"nexsim/internal/dsim"
	"nexsim/internal/lpn"
	"nexsim/internal/lpnlang"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// Register map (byte offsets): the device kit's four, then the
// descriptor ring's.
const (
	RegDoorbell  = devkit.RegDoorbell
	RegStatus    = devkit.RegStatus
	RegBusy      = devkit.RegBusy
	RegIRQEnable = devkit.RegIRQEnable
	RegRingBase  = 0x10 // W: descriptor ring base address
	RegRingSize  = 0x14 // W: descriptor ring capacity (slots)
	RegBatch     = 0x18 // W: launch the next N ring descriptors
)

// IRQVector is the completion interrupt vector.
const IRQVector = 9

// DescSize is the task-descriptor size: root (8) | out (8) | schema (4) |
// pad (4).
const DescSize = 24

// Desc describes one serialization task.
type Desc struct {
	Root   mem.Addr // root message block (Store layout)
	Out    mem.Addr // output buffer: u32 length followed by wire bytes
	Schema uint32   // schema id registered on the device
}

// EncodeDesc serializes a descriptor.
func EncodeDesc(d Desc) [DescSize]byte {
	var b [DescSize]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(d.Root))
	binary.LittleEndian.PutUint64(b[8:], uint64(d.Out))
	binary.LittleEndian.PutUint32(b[16:], d.Schema)
	return b
}

func decodeDesc(b []byte) Desc {
	return Desc{
		Root:   mem.Addr(binary.LittleEndian.Uint64(b[0:])),
		Out:    mem.Addr(binary.LittleEndian.Uint64(b[8:])),
		Schema: binary.LittleEndian.Uint32(b[16:]),
	}
}

// Timing parameters of the modeled serializer (Protoacc-like): several
// parallel field-serialization units, a memory unit for object and data
// fetches, and a streaming output writer.
const (
	fieldUnits       = 4
	objFetchUnits    = 2
	scalarBaseCycles = 6  // key + varint encode
	dataCopyBytesCyc = 8  // streaming copy bytes/cycle
	outWriteBytesCyc = 16 // output writer bytes/cycle
	descFetchCycles  = 8
	dispatchCycles   = 2
)

// ring is the descriptor ring behind both models' three ring registers.
type ring struct {
	base      mem.Addr
	size, idx int
}

// write handles a write to a ring register. A batch write is the
// asynchronous launch: the CPU queued v descriptors in the ring and one
// doorbell starts them all (Protoacc's batch protocol) — at most the
// ring's worth, and none on a ring whose size was never set.
func (r *ring) write(off mem.Addr, v uint32, launch func(desc mem.Addr)) {
	switch off {
	case RegRingBase:
		r.base = mem.Addr(v)
	case RegRingSize:
		r.size = int(v)
	case RegBatch:
		for n := min(int64(v), int64(r.size)); n > 0; n-- {
			launch(r.base + mem.Addr(r.idx*DescSize))
			r.idx = (r.idx + 1) % r.size
		}
	}
}

// frontend is what both models keep in front of their pipelines: the
// registered schemas, the descriptor ring, task numbering and the
// per-task latency log.
type frontend struct {
	schemas  map[uint32]*MessageDesc
	ring     ring
	nextTask int64

	// TaskLatency records per-task (submit, complete) pairs for tail
	// latency analysis (§6.8).
	TaskLatency []TaskSpan
	submitTime  map[int64]vclock.Time
}

func newFrontend() frontend {
	return frontend{schemas: make(map[uint32]*MessageDesc), submitTime: make(map[int64]vclock.Time)}
}

// TaskSpan is one task's lifetime.
type TaskSpan struct {
	Submit, Done vclock.Time
}

// RegisterSchema makes a message type available to the device under id
// (standing in for Protoacc's descriptor-table pointers).
func (f *frontend) RegisterSchema(id uint32, desc *MessageDesc) { f.schemas[id] = desc }

// Latencies returns the per-task latency log (for §6.8 tail analysis).
func (f *frontend) Latencies() []TaskSpan { return f.TaskLatency }

// begin starts the task whose descriptor sits at descAddr on device b:
// it numbers the task, logs its submit time and runs the functionality
// track — the memoized plan of the object graph walk and its wire bytes.
func (f *frontend) begin(b *devkit.Bank, at vclock.Time, descAddr mem.Addr) (task int64, desc Desc, plan *taskPlan) {
	b.Start(at)
	task = f.nextTask
	f.nextTask++
	f.submitTime[task] = at

	var descBytes [DescSize]byte
	b.Host.ZeroCostRead(descAddr, descBytes[:])
	desc = decodeDesc(descBytes[:])
	schema := f.schemas[desc.Schema]
	if schema == nil {
		panic(fmt.Sprintf("%s: unregistered schema %d", b.Name(), desc.Schema))
	}
	return task, desc, cachedPlan(b.Host, desc.Root, desc.Out, schema)
}

// finish logs task's latency and completes it on device b.
func (f *frontend) finish(b *devkit.Bank, task int64, at vclock.Time) {
	f.TaskLatency = append(f.TaskLatency, TaskSpan{Submit: f.submitTime[task], Done: at})
	delete(f.submitTime, task)
	b.Complete(at)
}

// nodeRec is one memory block in the device's fetch table (a task
// descriptor or a message block). Node-token attribute 0 indexes this
// table.
type nodeRec struct {
	task     int64
	addr     mem.Addr
	size     int
	fields   []planField
	children []int
}

// outRec is a task's pending output store.
type outRec struct {
	addr mem.Addr
	data []byte
}

// Device is the DSim model of the Protoacc serializer. Its LPN chains
// dependent memory accesses — a submessage block is fetched only after
// its parent's DMA response delivers the pointer — which is what makes
// Protoacc memory-latency bound (§6.4).
type Device struct {
	dsim.Base
	frontend
	clk vclock.Hz

	nodeQ  *lpn.Place
	storeQ *lpn.Place

	nodeTab   []nodeRec
	outTab    map[int64]outRec
	remaining map[int64]int64 // taskID -> outstanding nodes+fields
}

// NewDevice builds the DSim Protoacc model at clock clk.
func NewDevice(clk vclock.Hz) *Device {
	d := &Device{
		frontend:  newFrontend(),
		clk:       clk,
		outTab:    make(map[int64]outRec),
		remaining: make(map[int64]int64),
	}
	b := lpnlang.NewBuilder("protoacc", clk)

	// Token attribute layouts:
	//   nodeQ/objResp:  [nodeTab index, 0, 0, task]
	//   fieldQ:         [encBytes, 0, 0, task]
	//   dataQ/dataResp: [encBytes, dataBytes, dataAddr, task]
	//   storeQ/done:    [outBytes, 0, 0, task]
	d.nodeQ = b.Queue("nodes", 0)
	objResp := b.Queue("objResp", 0)
	fieldQ := b.Queue("fields", 0)
	dataQ := b.Queue("dataFields", 0)
	dataResp := b.Queue("dataResp", 0)
	fieldDone := b.Queue("fieldDone", 0)
	d.storeQ = b.Queue("store", 0)
	storeDone := b.Queue("storeDone", 0)

	// Object/descriptor block fetch: an addressed DMA whose response
	// gates dispatch. The fetch unit is occupied until the response
	// returns (it chases one pointer at a time), which is what makes
	// Protoacc's throughput memory-latency bound (§6.4).
	b.Stage("fetchObj", d.nodeQ, nil,
		func(f *lpn.Firing) vclock.Duration {
			t := f.Tok(0)
			rec := d.nodeTab[t.Attrs[0]]
			comp := d.DMA(f.Time, mem.Read, rec.addr, rec.size, nil)
			return comp.Sub(f.Time) + d.clk.CyclesDur(descFetchCycles)
		},
		lpnlang.Servers(objFetchUnits),
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			t := f.Tok(0)
			d.Net.Inject(objResp, lpn.Tok(done, t.Attrs[0], 0, 0, t.Attrs[3]))
		}))

	// Dispatch a fetched block: release its fields and chase its
	// submessage pointers (child nodes become fetchable only now).
	b.Stage("dispatch", objResp, nil, b.Cycles(dispatchCycles),
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			t := f.Tok(0)
			rec := d.nodeTab[t.Attrs[0]]
			for _, fi := range rec.fields {
				if fi.dataBytes > 0 {
					d.Net.Inject(dataQ, lpn.Tok(done, fi.encBytes, fi.dataBytes,
						int64(fi.dataAddr), rec.task))
				} else {
					d.Net.Inject(fieldQ, lpn.Tok(done, fi.encBytes, 0, 0, rec.task))
				}
			}
			for _, c := range rec.children {
				d.Net.Inject(d.nodeQ, lpn.Tok(done, int64(c), 0, 0, rec.task))
			}
			d.workDone(rec.task, f.Time)
		}))

	// Shared pool of field-serialization units.
	pool := b.Credits("fieldUnits", fieldUnits)

	// Scalar fields: encode immediately.
	b.Stage("serialize", fieldQ, fieldDone,
		b.CyclesFunc(func(f *lpn.Firing) int64 {
			return scalarBaseCycles + f.Tok(0).Attrs[0]
		}),
		lpnlang.Servers(0),
		lpnlang.AlsoConsume(pool, 1),
		lpnlang.AlsoRelease(pool))

	// Data-bearing fields: fetch the payload first (content filling);
	// the load unit blocks on its response, like the object fetchers.
	b.Stage("loadData", dataQ, nil,
		func(f *lpn.Firing) vclock.Duration {
			t := f.Tok(0)
			comp := d.DMA(f.Time, mem.Read, mem.Addr(t.Attrs[2]), int(t.Attrs[1]), nil)
			return comp.Sub(f.Time) + d.clk.CyclesDur(4)
		},
		lpnlang.Servers(objFetchUnits),
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			t := f.Tok(0)
			d.Net.Inject(dataResp, lpn.Tok(done, t.Attrs[0], t.Attrs[1], t.Attrs[2], t.Attrs[3]))
		}))
	b.Stage("serializeData", dataResp, fieldDone,
		b.CyclesFunc(func(f *lpn.Firing) int64 {
			return scalarBaseCycles + f.Tok(0).Attrs[1]/dataCopyBytesCyc
		}),
		lpnlang.Servers(0),
		lpnlang.AlsoConsume(pool, 1),
		lpnlang.AlsoRelease(pool))

	// Field completion accounting.
	b.Stage("account", fieldDone, nil, nil,
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			d.workDone(f.Tok(0).Attrs[3], f.Time)
		}))

	// Output writer: the task's assembled wire bytes stream to memory.
	b.Stage("store", d.storeQ, nil,
		b.CyclesFunc(func(f *lpn.Firing) int64 {
			return 4 + f.Tok(0).Attrs[0]/outWriteBytesCyc
		}),
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			t := f.Tok(0)
			task := t.Attrs[3]
			out := d.outTab[task]
			delete(d.outTab, task)
			comp := d.DMA(f.Time, mem.Write, out.addr, len(out.data), out.data)
			d.Net.Inject(storeDone, lpn.Tok(comp, t.Attrs[0], 0, 0, task))
		}))

	// Task completion.
	b.Stage("finish", storeDone, nil, nil,
		lpnlang.Effect(func(f *lpn.Firing, done vclock.Time) {
			d.finish(&d.Bank, f.Tok(0).Attrs[3], f.Time)
		}))

	d.Init("protoacc", IRQVector, d, b.MustBuild())
	return d
}

// workDone decrements a task's outstanding node+field count; at zero the
// output store is scheduled.
func (d *Device) workDone(task int64, at vclock.Time) {
	d.remaining[task]--
	if d.remaining[task] > 0 {
		return
	}
	delete(d.remaining, task)
	d.Net.Inject(d.storeQ, lpn.Tok(at, int64(len(d.outTab[task].data)), 0, 0, task))
}

// WriteReg implements devkit.ExtraRegs: the descriptor ring.
func (d *Device) WriteReg(at vclock.Time, off mem.Addr, v uint32) {
	d.ring.write(off, v, func(desc mem.Addr) { d.Doorbell(at, desc) })
}

// Doorbell implements devkit.Model: it runs the functionality track
// (walk the object graph, serialize) and plans the performance track's
// addressed DMA chain.
func (d *Device) Doorbell(at vclock.Time, descAddr mem.Addr) {
	if d.Idle() {
		// No in-flight tokens reference the fetch table when the device
		// is idle; truncate in place so it does not grow across tasks.
		d.nodeTab = d.nodeTab[:0]
	}
	task, desc, plan := d.begin(&d.Bank, at, descAddr)

	// Table entries: the descriptor pseudo-node chains to the root
	// message node; message nodes chain to their submessages.
	base := len(d.nodeTab) + 1 // message nodes start after the desc node
	d.nodeTab = append(d.nodeTab, nodeRec{
		task: task, addr: descAddr, size: DescSize, children: []int{base},
	})
	total := int64(1) // the descriptor node itself
	for _, n := range plan.nodes {
		rec := nodeRec{task: task, addr: n.addr, size: n.size, fields: n.fields}
		for _, c := range n.children {
			rec.children = append(rec.children, base+c)
		}
		d.nodeTab = append(d.nodeTab, rec)
		total += 1 + int64(len(n.fields))
	}
	d.remaining[task] = total
	d.outTab[task] = outRec{addr: desc.Out, data: plan.out}

	// Only the descriptor fetch is initially runnable; everything else
	// is discovered by chasing pointers.
	d.Net.Inject(d.nodeQ, lpn.Tok(at, int64(base-1), 0, 0, task))
}
