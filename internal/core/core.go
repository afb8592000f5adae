// Package core is the public façade of the simulator: it assembles a
// full-stack simulation from a host engine (reference, NEX, or the
// gem5-style cycle-level host), an accelerator engine (DSim or
// RTL-style) per device, the interconnect/cache/memory stack between
// them, and an application program — the four compositions of the
// paper's Table 1 plus the exact-time reference that stands in for the
// FPGA testbeds.
package core

import (
	"errors"
	"fmt"
	"time"

	"nexsim/internal/accel"
	"nexsim/internal/accel/jpeg"
	"nexsim/internal/accel/protoacc"
	"nexsim/internal/accel/vta"
	"nexsim/internal/app"
	"nexsim/internal/cachesim"
	"nexsim/internal/cpu"
	"nexsim/internal/dram"
	"nexsim/internal/exacthost"
	"nexsim/internal/faults"
	"nexsim/internal/hostkit"
	"nexsim/internal/interconnect"
	"nexsim/internal/mem"
	"nexsim/internal/memsys"
	"nexsim/internal/nex"
	"nexsim/internal/simbricks"
	"nexsim/internal/trace"
	"nexsim/internal/vclock"
)

// HostKind selects the host simulator.
type HostKind int

const (
	// HostReference is the exact-time engine with native compute timing —
	// the stand-in for the real system / FPGA testbed.
	HostReference HostKind = iota
	// HostNEX is the NEX orchestrator.
	HostNEX
	// HostGem5 is the exact-time engine with the cycle-level CPU model.
	HostGem5
)

func (h HostKind) String() string {
	switch h {
	case HostReference:
		return "reference"
	case HostNEX:
		return "nex"
	default:
		return "gem5"
	}
}

// AccelKind selects the accelerator simulator.
type AccelKind int

const (
	AccelDSim AccelKind = iota
	AccelRTL
)

func (a AccelKind) String() string {
	if a == AccelDSim {
		return "dsim"
	}
	return "rtl"
}

// AccelModel names an accelerator type.
type AccelModel string

const (
	AccelNone     AccelModel = ""
	AccelJPEG     AccelModel = "jpeg"
	AccelVTA      AccelModel = "vta"
	AccelProtoacc AccelModel = "protoacc"
)

// DMALevel selects which cache level serves accelerator DMAs.
type DMALevel int

const (
	DMALLC DMALevel = iota
	DMAL2
)

// Config assembles one full-stack simulation.
type Config struct {
	Host  HostKind
	Accel AccelKind

	Model   AccelModel
	Devices int // accelerator instances (default 1 when Model != "")

	// Fabric is the host-accelerator interconnect (default: paper
	// defaults per accelerator — PCIe 400ns for JPEG/VTA, on-chip 4ns
	// for Protoacc).
	Fabric *interconnect.Config
	// DMATarget selects the cache level serving DMAs (default LLC).
	DMATarget DMALevel

	// IOTLB, when set, translates every accelerator DMA through a
	// per-device I/O TLB (the §7 future-work extension).
	IOTLB *interconnect.IOTLBConfig

	// Clock is the host core frequency (default 3GHz); AccelClock the
	// accelerator frequency (default 2GHz).
	Clock      vclock.Hz
	AccelClock vclock.Hz

	// Cores is the host core count available to the application.
	Cores int

	// NEX-specific options (ignored for other hosts).
	NEX nex.Config
	// NEXNoTick disables tick-mode drivers under NEX (every task-buffer
	// access traps) — the §3.2 ablation.
	NEXNoTick bool

	// UseChannel routes every host-device interaction through a
	// SimBricks-style message channel instead of the tight in-process
	// integration (§A.2's comparison).
	UseChannel bool

	// IntraParallel is the intra-run worker count (DESIGN.md §10): with
	// N >= 2, accelerator engines advance on up to N-1 stepper
	// goroutines under conservative lookahead while the host engine
	// runs on its own goroutine, synchronizing at deterministic
	// barriers. Every table, trace, and checkpoint is byte-identical to
	// the serial schedule. 0 or 1 = serial (the default).
	IntraParallel int

	// Budget bounds the run (watchdog): a run that exceeds it aborts
	// with a structured ErrBudgetExceeded from TryRun instead of
	// running (or hanging) forever. The zero value is unlimited.
	Budget Budget

	// Faults is the per-run deterministic fault injector (nil = none);
	// it is threaded through the engines' device-dispatch path and every
	// SimBricks channel.
	Faults *faults.Injector

	// Trace enables coarse-grained trace recording.
	Trace *trace.Recorder

	Seed uint64
}

// Budget is a per-run watchdog: MaxEpochs caps NEX scheduler epochs
// (the exact-time hosts apply it to event-queue steps, their closest
// analogue), MaxWall caps host wall-clock time. Zero fields are
// unlimited.
type Budget struct {
	MaxEpochs int64
	MaxWall   time.Duration
}

// ErrBudgetExceeded reports a run aborted by its Budget. The abort is
// cooperative and structured: the engine stops within one epoch (or
// step/wall check) of the bound, every thread goroutine is reaped, and
// TryRun returns an error wrapping this sentinel.
var ErrBudgetExceeded = errors.New("core: run budget exceeded")

// Ctx is handed to workload builders: where the devices live and how to
// reach memory.
type Ctx struct {
	Mem      *mem.Memory
	MMIO     []mem.Addr // per device instance
	TaskBufs []mem.Addr // per device instance (4KB each)
	// Arena is a large scratch region for workload data (program
	// streams, images, message graphs).
	Arena mem.Addr
	// Devices are the constructed accelerator simulators (for schema
	// registration etc.).
	Devices []accel.Device
	// Clock is the host clock.
	Clock vclock.Hz
}

// System is a fully assembled simulation.
type System struct {
	cfg   Config
	Ctx   Ctx
	binds []accel.Device
	// Channels holds the SimBricks channels when UseChannel is set.
	Channels []*simbricks.Channel
	host     hostEngine
	run      func(prog app.Program) vclock.Duration // host.Run, reduced to the simulated time
	nexEng   *nex.Engine                            // == host under HostNEX, else nil
	gem5CPU  *cpu.Model
	caches   []*cachesim.Cache
}

// hostEngine is what a System needs of its host engine once it is
// constructed; nex.Engine and exacthost.Engine both provide it. (Run is
// not part of it only because the engines' Result types differ.)
type hostEngine interface {
	Attach(*hostkit.Binding)
	HostFor(*hostkit.Binding) accel.Host
	IntraStats() (lanes int, deviceWall time.Duration)
	BudgetExceeded() bool
	Reap()
}

// Result reports one completed run.
type Result struct {
	SimTime  vclock.Duration // simulated (virtual) time
	WallTime time.Duration   // host wall-clock time of the run
	Host     HostKind
	Accel    AccelKind
	NEXStats nex.Stats // populated for NEX hosts
	Devices  []accel.DeviceStats

	// Intra is the effective intra-run worker count: 1 + the number of
	// device stepper lanes that ran (1 = fully serial).
	Intra int
	// HostWall is the wall time the host engine goroutine spent on the
	// portion of the run this Result covers (the whole run, or the
	// resumed part of a run forked from a checkpoint). It equals
	// WallTime: the time the host spends blocked joining steppers cannot
	// be told apart from the time it spends simulating. DeviceWall is the
	// cumulative stepper busy time, which overlaps HostWall when Intra > 1
	// and is zero when serial (device time is then part of HostWall).
	HostWall   time.Duration
	DeviceWall time.Duration

	// TaskLatency is the first device's per-task latency log when the
	// model keeps one (Protoacc, §6.8) — the device's own slice, not a
	// copy. ChannelMsgs is the message count summed over the SimBricks
	// channels of a UseChannel run. Both are read-outs for the table
	// renderers and enter no content address or encoded result.
	TaskLatency []protoacc.TaskSpan
	ChannelMsgs int64
}

// Slowdown is WallTime / SimTime.
func (r Result) Slowdown() float64 {
	if r.SimTime <= 0 {
		return 0
	}
	return float64(r.WallTime.Nanoseconds()) / r.SimTime.Nanoseconds()
}

// Build assembles a system.
func Build(cfg Config) *System {
	if cfg.Clock == 0 {
		cfg.Clock = 3 * vclock.GHz
	}
	if cfg.AccelClock == 0 {
		cfg.AccelClock = 2 * vclock.GHz
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 16
	}
	if cfg.Model != AccelNone && cfg.Devices <= 0 {
		cfg.Devices = 1
	}

	m := mem.New(0x1000_0000)
	sys := &System{cfg: cfg}
	sys.Ctx.Mem = m
	sys.Ctx.Clock = cfg.Clock

	intra := cfg.IntraParallel
	if intra < 1 {
		intra = 1
	}
	if intra > 1 {
		// Host and stepper goroutines touch disjoint byte ranges of the
		// functional memory concurrently; arm the page-table lock.
		m.SetConcurrent()
	}

	fabricCfg := sys.fabricConfig()

	// Build devices + bindings, then the host engine around them.
	// Register accesses traverse the same fabric as DMAs: a read stalls
	// for the round trip, a write is posted.
	mmioReadCost := 2*fabricCfg.LinkLatency + 50*vclock.Nanosecond
	mmioWriteCost := fabricCfg.LinkLatency/4 + 60*vclock.Nanosecond

	var binds []*hostkit.Binding
	for i := 0; i < cfg.Devices; i++ {
		mmio := mem.Addr(0x8000_0000 + uint64(i)*0x1_0000)
		tb := m.Alloc(fmt.Sprintf("taskbuf%d", i), 4096)
		// Banked memory-system stack: each device's DMA port owns a
		// private LLC slice and DRAM channel (CAT-style way
		// partitioning, §6.4's design sweep applies per bank). Host
		// task accesses never touch this stack (they carry a fixed
		// TaskAccessCost, and the gem5 CPU model has its own private
		// hierarchy), so banking keeps single-device runs structurally
		// identical while making each device's timing state private —
		// the property parallel intra-run mode (DESIGN.md §10) relies
		// on for serial↔parallel byte-identity.
		dramCtl := dram.New(dram.DDR4)
		llc := cachesim.New(cachesim.LLC, dramCtl)
		sys.caches = append(sys.caches, llc)
		var dmaTarget memsys.Port = llc
		if cfg.DMATarget == DMAL2 {
			l2 := cachesim.New(cachesim.L2, llc)
			sys.caches = append(sys.caches, l2)
			dmaTarget = l2
		}
		fabric := interconnect.New(fabricCfg, dmaTarget)
		if cfg.IOTLB != nil {
			fabric.EnableIOTLB(*cfg.IOTLB)
		}
		dev := newDevice(cfg.Model, cfg.Accel, cfg.AccelClock)
		if cfg.UseChannel {
			ch := simbricks.NewChannel(0)
			ch.SetFaults(cfg.Faults)
			sys.Channels = append(sys.Channels, ch)
			dev = simbricks.WrapDevice(dev, ch)
		}
		binds = append(binds, &hostkit.Binding{Device: dev, MMIOBase: mmio,
			MMIOSize: 0x1_0000, DMAPort: fabric,
			MMIOCost: mmioReadCost, MMIOWriteCost: mmioWriteCost})
		sys.binds = append(sys.binds, dev)
		sys.Ctx.MMIO = append(sys.Ctx.MMIO, mmio)
		sys.Ctx.TaskBufs = append(sys.Ctx.TaskBufs, tb.Base)
		sys.Ctx.Devices = append(sys.Ctx.Devices, dev)
	}
	arena := m.Alloc("arena", 64<<20)
	sys.Ctx.Arena = arena.Base

	switch cfg.Host {
	case HostNEX:
		ncfg := cfg.NEX
		// Tick-mode drivers are the default (task-buffer writes are
		// batched behind doorbells); the explicit-trap ablation sets
		// NEXNoTick.
		ncfg.TickMode = !cfg.NEXNoTick
		ncfg.Clock = cfg.Clock
		if ncfg.VirtualCores == 0 {
			ncfg.VirtualCores = cfg.Cores
		}
		ncfg.Memory = m
		ncfg.Trace = cfg.Trace
		ncfg.Seed = cfg.Seed
		ncfg.MaxEpochs = cfg.Budget.MaxEpochs
		ncfg.MaxWall = cfg.Budget.MaxWall
		ncfg.Faults = cfg.Faults
		ncfg.Intra = intra
		eng := nex.New(ncfg)
		sys.host, sys.nexEng = eng, eng
		sys.run = func(prog app.Program) vclock.Duration { return eng.Run(prog).SimTime }

	case HostReference, HostGem5:
		ecfg := exacthost.Config{
			Clock: cfg.Clock, Cores: cfg.Cores, Memory: m, Trace: cfg.Trace,
			MaxSteps: cfg.Budget.MaxEpochs, MaxWall: cfg.Budget.MaxWall,
			Intra: intra,
		}
		if cfg.Host == HostGem5 {
			sys.gem5CPU = cpu.New(cpu.Config{Clock: cfg.Clock})
			ecfg.Compute = sys.gem5CPU
		}
		eng := exacthost.New(ecfg)
		sys.host = eng
		sys.run = func(prog app.Program) vclock.Duration { return eng.Run(prog).SimTime }
	}

	for _, b := range binds {
		setHost(b.Device, sys.host.HostFor(b))
		sys.host.Attach(b)
	}
	return sys
}

// Release returns the system's pooled resources — the cache hierarchy
// and the pages of the simulated memory — for reuse by a future Build.
// Call it once, last: after the final Run result, CPU-model counter and
// checkpoint blob have been extracted and after Reap, because Ctx.Mem
// reads as all zeros from here on and its old pages may already belong
// to another system (every caller in experiments and bench releases
// last). Releasing is purely an allocation optimization — a Build that
// reuses recycled parts is behaviorally identical to a fresh one.
func (s *System) Release() {
	for _, c := range s.caches {
		c.Recycle()
	}
	s.caches = nil
	s.Ctx.Mem.Release()
}

// CPUModel returns the gem5-style CPU model (nil for other hosts).
func (s *System) CPUModel() *cpu.Model { return s.gem5CPU }

// NEXEngine returns the NEX engine (nil for other hosts).
func (s *System) NEXEngine() *nex.Engine { return s.nexEng }

// fabricConfig picks the paper's default attachment per accelerator.
func (s *System) fabricConfig() interconnect.Config {
	if s.cfg.Fabric != nil {
		return *s.cfg.Fabric
	}
	if s.cfg.Model == AccelProtoacc {
		return interconnect.OnChip4
	}
	return interconnect.PCIe400
}

// Run executes the program on the assembled system. A budget abort
// panics (use TryRun for the structured error); systems without a
// Budget never abort.
func (s *System) Run(prog app.Program) Result { return must(s.TryRun(prog)) }

// must is the panicking variant of the Try entry points.
func must(r Result, err error) Result {
	if err != nil {
		panic(err)
	}
	return r
}

// TryRun executes the program and returns a structured error when the
// run exceeds its Budget. On abort every thread goroutine is reaped
// (nothing leaks) and the partial Result is discarded.
func (s *System) TryRun(prog app.Program) (Result, error) {
	start := time.Now() //simlint:allow nondet-time Result.WallTime is speed reporting, never simulation state
	return s.finish(start, s.run(prog))
}

// finish turns one completed engine entry point (Run, RunPrefix run to
// the end, ResumeRun) that started at start into the System's Result,
// or — when the engine aborted on its Budget — reaps the engine and
// returns the structured error.
func (s *System) finish(start time.Time, simTime vclock.Duration) (Result, error) {
	wall := time.Since(start) //simlint:allow nondet-time
	if s.BudgetExceeded() {
		s.Reap()
		return Result{}, fmt.Errorf("%s/%s run aborted after %v simulated: %w",
			s.cfg.Host, s.cfg.Accel, simTime, ErrBudgetExceeded)
	}
	lanes, devWall := s.host.IntraStats()
	r := Result{SimTime: simTime, WallTime: wall, Host: s.cfg.Host, Accel: s.cfg.Accel,
		Intra: 1 + lanes, HostWall: wall, DeviceWall: devWall}
	if s.nexEng != nil {
		r.NEXStats = s.nexEng.Stats
	}
	for _, d := range s.binds {
		// No lane is live here: Run and ResumeRun stop the device
		// complex's stepper lanes before returning, and RunPrefix never
		// starts them (the open window the analysis sees there is the
		// flow-insensitive summary of Complex.Advance's parallel branch).
		r.Devices = append(r.Devices, d.Stats()) //simlint:allow lane-safety engine entry points return with lanes stopped
	}
	if len(s.binds) > 0 {
		if l, ok := unwrap(s.binds[0]).(interface{ Latencies() []protoacc.TaskSpan }); ok {
			r.TaskLatency = l.Latencies()
		}
	}
	for _, ch := range s.Channels {
		r.ChannelMsgs += ch.Msgs
	}
	return r, nil
}

// BudgetExceeded reports whether the engine aborted on its Budget.
func (s *System) BudgetExceeded() bool { return s.host.BudgetExceeded() }

// Reap force-terminates every live thread goroutine of an abandoned
// run (budget aborts, injected-fault panics). Idempotent; the system
// must not be Run again afterwards.
func (s *System) Reap() { s.host.Reap() }

func newDevice(model AccelModel, kind AccelKind, clk vclock.Hz) accel.Device {
	switch model {
	case AccelJPEG:
		if kind == AccelDSim {
			return jpeg.NewDevice(clk)
		}
		return jpeg.NewRTLDevice(clk)
	case AccelVTA:
		if kind == AccelDSim {
			return vta.NewDevice(clk)
		}
		return vta.NewRTLDevice(clk)
	case AccelProtoacc:
		if kind == AccelDSim {
			return protoacc.NewDevice(clk)
		}
		return protoacc.NewRTLDevice(clk)
	default:
		panic("core: unknown accelerator model " + string(model))
	}
}

func setHost(d accel.Device, h accel.Host) {
	type hostSetter interface{ SetHost(accel.Host) }
	d.(hostSetter).SetHost(h)
}
