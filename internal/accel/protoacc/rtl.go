package protoacc

import (
	"nexsim/internal/accel/devkit"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// RTLDevice is the cycle-level model of the Protoacc serializer — the
// stand-in for Verilator running its RTL. Every busy clock cycle is an
// explicit simulation step; register semantics, DMA sequence and output
// bytes are identical to the DSim model.
type RTLDevice struct {
	devkit.Bank
	devkit.Clock
	frontend

	// Pipeline state. nodeTab holds every block; objQ indexes the
	// currently fetchable ones (pointer chasing releases children).
	nodeTab  []rtlObj
	objQ     devkit.Queue[int]
	objCur   [objFetchUnits]*rtlObj
	objBusy  [objFetchUnits]int64
	fieldQ   devkit.Queue[rtlField]
	fieldCur [fieldUnits]*rtlField
	fieldBsy [fieldUnits]int64
	storeQ   devkit.Queue[rtlStore]
	storeCur *rtlStore
	storeBsy int64

	remaining map[int64]int64
	outOf     map[int64]rtlStore
}

type rtlObj struct {
	task     int64
	addr     mem.Addr
	size     int
	fields   []rtlField
	children []int // nodeTab indices released by this block's response
}

type rtlField struct {
	task      int64
	encBytes  int64
	dataBytes int64
	dataAddr  mem.Addr
}

type rtlStore struct {
	task int64
	addr mem.Addr
	data []byte
}

// NewRTLDevice builds the cycle-level serializer model.
func NewRTLDevice(clk vclock.Hz) *RTLDevice {
	d := &RTLDevice{
		frontend:  newFrontend(),
		remaining: make(map[int64]int64),
		outOf:     make(map[int64]rtlStore),
	}
	d.Bank.Init("protoacc-rtl", IRQVector, d)
	d.Clock.Init(clk, d)
	return d
}

// Busy implements devkit.Pipeline.
func (d *RTLDevice) Busy() bool {
	if d.objQ.Len() > 0 || d.fieldQ.Len() > 0 || d.storeQ.Len() > 0 || d.storeCur != nil {
		return true
	}
	for i := range d.objCur {
		if d.objCur[i] != nil {
			return true
		}
	}
	for i := range d.fieldCur {
		if d.fieldCur[i] != nil {
			return true
		}
	}
	return false
}

// nextCycle is the cycle of the next unit event: the nearest busy-until,
// or now if there is queued work — counted, when needIdle is set, only
// for a unit kind that has an idle unit to take it.
func (d *RTLDevice) nextCycle(needIdle bool) int64 {
	next := int64(1 << 62)
	objIdle, fieldIdle, storeIdle := !needIdle, !needIdle, !needIdle
	for i := range d.objCur {
		if d.objCur[i] != nil {
			next = min(next, d.objBusy[i])
		} else {
			objIdle = true
		}
	}
	for i := range d.fieldCur {
		if d.fieldCur[i] != nil {
			next = min(next, d.fieldBsy[i])
		} else {
			fieldIdle = true
		}
	}
	if d.storeCur != nil {
		next = min(next, d.storeBsy)
	} else {
		storeIdle = true
	}
	if objIdle && d.objQ.Len() > 0 || fieldIdle && d.fieldQ.Len() > 0 || storeIdle && d.storeQ.Len() > 0 {
		next = min(next, d.Cycle)
	}
	return next
}

// NextStep implements devkit.Pipeline: queued work issues only when a
// unit is idle to take it.
func (d *RTLDevice) NextStep() int64 { return d.nextCycle(true) }

// NextEvent implements accel.Device. Unlike NextStep it counts queued
// work as an event now whether or not a unit is idle to take it
// (devices.golden pins the hosts' schedules to that answer).
func (d *RTLDevice) NextEvent() (vclock.Time, bool) {
	if !d.Busy() {
		return vclock.Never, false
	}
	return d.TimeAt(max(d.nextCycle(false), d.Cycle)), true
}

// Step implements devkit.Pipeline: all units advance one clock cycle.
func (d *RTLDevice) Step() {
	now := d.TimeAt(d.Cycle)

	// Store unit.
	if d.storeCur != nil && d.Cycle >= d.storeBsy {
		s := d.storeCur
		d.storeCur = nil
		d.finish(&d.Bank, s.task, d.DMA(now, mem.Write, s.addr, len(s.data), s.data))
	}
	if d.storeCur == nil && d.storeQ.Len() > 0 {
		s := *d.storeQ.Front()
		d.storeQ.Pop()
		d.storeCur = &s
		d.storeBsy = d.Cycle + 4 + int64(len(s.data))/outWriteBytesCyc
	}

	// Field units.
	for i := range d.fieldCur {
		if d.fieldCur[i] != nil && d.Cycle >= d.fieldBsy[i] {
			f := d.fieldCur[i]
			d.fieldCur[i] = nil
			d.workDone(f.task)
		}
		if d.fieldCur[i] == nil && d.fieldQ.Len() > 0 {
			f := *d.fieldQ.Front()
			d.fieldQ.Pop()
			d.fieldCur[i] = &f
			busy := d.Cycle + scalarBaseCycles + f.encBytes
			if f.dataBytes > 0 {
				comp := d.DMA(now, mem.Read, f.dataAddr, int(f.dataBytes), nil)
				busy = max(d.Cycle+scalarBaseCycles+f.dataBytes/dataCopyBytesCyc, d.CyclesAt(comp))
			}
			d.fieldBsy[i] = busy
		}
	}

	// Object fetch units: completing a block releases its fields and
	// its submessage children (pointer chasing).
	for i := range d.objCur {
		if d.objCur[i] != nil && d.Cycle >= d.objBusy[i] {
			o := d.objCur[i]
			d.objCur[i] = nil
			d.fieldQ.Push(o.fields...)
			d.objQ.Push(o.children...)
			d.workDone(o.task)
		}
		if d.objCur[i] == nil && d.objQ.Len() > 0 {
			o := d.nodeTab[*d.objQ.Front()]
			d.objQ.Pop()
			d.objCur[i] = &o
			comp := d.DMA(now, mem.Read, o.addr, o.size, nil)
			d.objBusy[i] = max(d.Cycle+descFetchCycles, d.CyclesAt(comp))
		}
	}
}

func (d *RTLDevice) workDone(task int64) {
	d.remaining[task]--
	if d.remaining[task] > 0 {
		return
	}
	delete(d.remaining, task)
	d.storeQ.Push(d.outOf[task])
	delete(d.outOf, task)
}

// WriteReg implements devkit.ExtraRegs: the descriptor ring.
func (d *RTLDevice) WriteReg(at vclock.Time, off mem.Addr, v uint32) {
	d.ring.write(off, v, func(desc mem.Addr) { d.Doorbell(at, desc) })
}

// Doorbell implements devkit.Model.
func (d *RTLDevice) Doorbell(at vclock.Time, descAddr mem.Addr) {
	task, desc, plan := d.begin(&d.Bank, at, descAddr)

	total := int64(len(plan.nodes)) + 1
	for _, n := range plan.nodes {
		total += int64(len(n.fields))
	}
	d.remaining[task] = total
	d.outOf[task] = rtlStore{task: task, addr: desc.Out, data: plan.out}

	// The descriptor pseudo-node chains to the root; message nodes chain
	// to their submessages. Only the descriptor is initially fetchable.
	base := len(d.nodeTab) + 1
	d.nodeTab = append(d.nodeTab, rtlObj{
		task: task, addr: descAddr, size: DescSize, children: []int{base},
	})
	for _, n := range plan.nodes {
		var fs []rtlField
		for _, f := range n.fields {
			fs = append(fs, rtlField{task: task, encBytes: f.encBytes,
				dataBytes: f.dataBytes, dataAddr: f.dataAddr})
		}
		o := rtlObj{task: task, addr: n.addr, size: n.size, fields: fs}
		for _, c := range n.children {
			o.children = append(o.children, base+c)
		}
		d.nodeTab = append(d.nodeTab, o)
	}
	d.objQ.Push(base - 1)
}
