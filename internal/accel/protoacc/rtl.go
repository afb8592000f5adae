package protoacc

import (
	"fmt"

	"nexsim/internal/accel"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// RTLDevice is the cycle-level model of the Protoacc serializer — the
// stand-in for Verilator running its RTL. Every busy clock cycle is an
// explicit simulation step; register semantics, DMA sequence and output
// bytes are identical to the DSim model.
type RTLDevice struct {
	name string
	clk  vclock.Hz
	host accel.Host

	cycle int64

	completed  uint32
	inFlight   uint32
	irqEnabled bool

	schemas map[uint32]*MessageDesc

	// Pipeline state. nodeTab holds every block; objQ indexes the
	// currently fetchable ones (pointer chasing releases children).
	nodeTab  []rtlObj
	objQ     []int
	objCur   [objFetchUnits]*rtlObj
	objBusy  [objFetchUnits]int64
	fieldQ   []rtlField
	fieldCur [fieldUnits]*rtlField
	fieldBsy [fieldUnits]int64
	storeQ   []rtlStore
	storeCur *rtlStore
	storeBsy int64

	ringBase mem.Addr
	ringSize int
	ringIdx  int

	remaining map[int64]int64
	outOf     map[int64]rtlStore
	nextTask  int64

	stats     accel.DeviceStats
	busyStart vclock.Time

	// TaskLatency mirrors the DSim device's per-task latency log.
	TaskLatency []TaskSpan
	submitTime  map[int64]vclock.Time
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
	dataDone  int64 // cycle the LOAD_DATA response arrived (set when issued)
}

type rtlStore struct {
	task int64
	addr mem.Addr
	data []byte
}

// NewRTLDevice builds the cycle-level serializer model.
func NewRTLDevice(clk vclock.Hz) *RTLDevice {
	return &RTLDevice{
		name:       "protoacc-rtl",
		clk:        clk,
		schemas:    make(map[uint32]*MessageDesc),
		remaining:  make(map[int64]int64),
		outOf:      make(map[int64]rtlStore),
		submitTime: make(map[int64]vclock.Time),
	}
}

// SetHost wires the device to its host engine.
func (d *RTLDevice) SetHost(h accel.Host) { d.host = h }

// RegisterSchema mirrors Device.RegisterSchema.
func (d *RTLDevice) RegisterSchema(id uint32, desc *MessageDesc) { d.schemas[id] = desc }

// Latencies returns the per-task latency log.
func (d *RTLDevice) Latencies() []TaskSpan { return d.TaskLatency }

// Name implements accel.Device.
func (d *RTLDevice) Name() string { return d.name }

// Stats implements accel.Device.
func (d *RTLDevice) Stats() accel.DeviceStats { return d.stats }

func (d *RTLDevice) timeAt(c int64) vclock.Time   { return vclock.Time(0).Add(d.clk.CyclesDur(c)) }
func (d *RTLDevice) cyclesAt(t vclock.Time) int64 { return d.clk.Cycles(t.Sub(0)) }

func (d *RTLDevice) busy() bool {
	if len(d.objQ) > 0 || len(d.fieldQ) > 0 || len(d.storeQ) > 0 || d.storeCur != nil {
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

// Advance implements accel.Device.
//
// Between unit events step() is a pure no-op: completions fire at a
// unit's busy-until cycle and an idle unit with queued work issues in
// the same step it went idle. Jumping straight to the nearest
// busy-until when no idle unit has work is therefore cycle-exact and
// skips the dead stepping in between.
func (d *RTLDevice) Advance(t vclock.Time) {
	target := d.cyclesAt(t)
	for d.cycle <= target {
		if !d.busy() {
			d.cycle = target + 1
			return
		}
		next := int64(1 << 62)
		use := func(c int64) {
			if c < next {
				next = c
			}
		}
		for i := range d.objCur {
			if d.objCur[i] != nil {
				use(d.objBusy[i])
			} else if len(d.objQ) > 0 {
				use(d.cycle)
			}
		}
		for i := range d.fieldCur {
			if d.fieldCur[i] != nil {
				use(d.fieldBsy[i])
			} else if len(d.fieldQ) > 0 {
				use(d.cycle)
			}
		}
		if d.storeCur != nil {
			use(d.storeBsy)
		} else if len(d.storeQ) > 0 {
			use(d.cycle)
		}
		if next > d.cycle {
			if next > target {
				d.cycle = target + 1
				return
			}
			d.cycle = next
		}
		d.step()
		d.cycle++
	}
}

// NextEvent implements accel.Device.
func (d *RTLDevice) NextEvent() (vclock.Time, bool) {
	if !d.busy() {
		return vclock.Never, false
	}
	next := int64(1 << 62)
	use := func(c int64) {
		if c < next {
			next = c
		}
	}
	for i := range d.objCur {
		if d.objCur[i] != nil {
			use(d.objBusy[i])
		}
	}
	for i := range d.fieldCur {
		if d.fieldCur[i] != nil {
			use(d.fieldBsy[i])
		}
	}
	if d.storeCur != nil {
		use(d.storeBsy)
	}
	if len(d.objQ) > 0 || len(d.fieldQ) > 0 || len(d.storeQ) > 0 {
		use(d.cycle)
	}
	if next < d.cycle {
		next = d.cycle
	}
	return d.timeAt(next), true
}

// step advances all pipeline units one clock cycle.
func (d *RTLDevice) step() {
	now := d.timeAt(d.cycle)

	// Store unit.
	if d.storeCur != nil && d.cycle >= d.storeBsy {
		s := d.storeCur
		d.storeCur = nil
		done := d.host.DMA(now, mem.Write, s.addr, len(s.data))
		d.stats.DMABytes += int64(len(s.data))
		d.host.ZeroCostWrite(s.addr, s.data)
		d.completed++
		d.inFlight--
		d.stats.TasksCompleted++
		d.TaskLatency = append(d.TaskLatency, TaskSpan{Submit: d.submitTime[s.task], Done: done})
		delete(d.submitTime, s.task)
		if d.inFlight == 0 {
			d.stats.BusyTime += done.Sub(d.busyStart)
		}
		if d.irqEnabled {
			d.host.RaiseIRQ(done, IRQVector)
		}
	}
	if d.storeCur == nil && len(d.storeQ) > 0 {
		s := d.storeQ[0]
		d.storeQ = d.storeQ[1:]
		d.storeCur = &s
		d.storeBsy = d.cycle + 4 + int64(len(s.data))/outWriteBytesCyc
	}

	// Field units.
	for i := range d.fieldCur {
		if d.fieldCur[i] != nil && d.cycle >= d.fieldBsy[i] {
			f := d.fieldCur[i]
			d.fieldCur[i] = nil
			d.workDone(f.task, d.cycle)
		}
		if d.fieldCur[i] == nil && len(d.fieldQ) > 0 {
			f := d.fieldQ[0]
			d.fieldQ = d.fieldQ[1:]
			d.fieldCur[i] = &f
			busy := d.cycle + scalarBaseCycles + f.encBytes
			if f.dataBytes > 0 {
				comp := d.host.DMA(now, mem.Read, f.dataAddr, int(f.dataBytes))
				d.stats.DMABytes += f.dataBytes
				busy = d.cycle + scalarBaseCycles + f.dataBytes/dataCopyBytesCyc
				if c := d.cyclesAt(comp); c > busy {
					busy = c
				}
			}
			d.fieldBsy[i] = busy
		}
	}

	// Object fetch units: completing a block releases its fields and
	// its submessage children (pointer chasing).
	for i := range d.objCur {
		if d.objCur[i] != nil && d.cycle >= d.objBusy[i] {
			o := d.objCur[i]
			d.objCur[i] = nil
			d.fieldQ = append(d.fieldQ, o.fields...)
			d.objQ = append(d.objQ, o.children...)
			d.workDone(o.task, d.cycle)
		}
		if d.objCur[i] == nil && len(d.objQ) > 0 {
			idx := d.objQ[0]
			d.objQ = d.objQ[1:]
			o := d.nodeTab[idx]
			d.objCur[i] = &o
			comp := d.host.DMA(now, mem.Read, o.addr, o.size)
			d.stats.DMABytes += int64(o.size)
			busy := d.cycle + descFetchCycles
			if c := d.cyclesAt(comp); c > busy {
				busy = c
			}
			d.objBusy[i] = busy
		}
	}
}

func (d *RTLDevice) workDone(task, cycle int64) {
	d.remaining[task]--
	if d.remaining[task] > 0 {
		return
	}
	delete(d.remaining, task)
	s := d.outOf[task]
	delete(d.outOf, task)
	d.storeQ = append(d.storeQ, s)
}

// RegRead implements accel.Device.
func (d *RTLDevice) RegRead(at vclock.Time, off mem.Addr) uint32 {
	d.Advance(at)
	switch off {
	case RegStatus:
		return d.completed
	case RegBusy:
		return d.inFlight
	default:
		return 0
	}
}

// RegWrite implements accel.Device.
func (d *RTLDevice) RegWrite(at vclock.Time, off mem.Addr, v uint32) {
	d.Advance(at)
	switch off {
	case RegDoorbell:
		d.startTask(at, mem.Addr(v))
	case RegIRQEnable:
		d.irqEnabled = v != 0
	case RegRingBase:
		d.ringBase = mem.Addr(v)
	case RegRingSize:
		d.ringSize = int(v)
	case RegBatch:
		for i := uint32(0); i < v; i++ {
			d.startTask(at, d.ringBase+mem.Addr(d.ringIdx*DescSize))
			d.ringIdx = (d.ringIdx + 1) % d.ringSize
		}
	}
}

func (d *RTLDevice) startTask(at vclock.Time, descAddr mem.Addr) {
	d.stats.TasksStarted++
	if d.inFlight == 0 {
		d.busyStart = at
	}
	d.inFlight++
	task := d.nextTask
	d.nextTask++
	d.submitTime[task] = at

	var descBytes [DescSize]byte
	d.host.ZeroCostRead(descAddr, descBytes[:])
	desc := decodeDesc(descBytes[:])
	schema := d.schemas[desc.Schema]
	if schema == nil {
		panic(fmt.Sprintf("protoacc-rtl: unregistered schema %d", desc.Schema))
	}

	plan := cachedPlan(d.host, desc.Root, desc.Out, schema)

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
	d.objQ = append(d.objQ, base-1)
	if c := d.cyclesAt(at); d.cycle < c {
		d.cycle = c
	}
}

// MayRaiseIRQ reports whether an Advance may deliver an interrupt to the
// host (parsim's async-grant eligibility predicate): only once the
// driver has enabled interrupts via the IRQ-enable register.
func (d *RTLDevice) MayRaiseIRQ() bool { return d.irqEnabled }
