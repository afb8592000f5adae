package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"nexsim/internal/core"
	"nexsim/internal/faults"
	"nexsim/internal/interconnect"
	"nexsim/internal/nex"
	"nexsim/internal/vclock"
	"nexsim/internal/workloads"
)

// Spec is the structured description of one simulation run: which
// catalogued benchmark, which host and accelerator engines, and the
// configuration overrides the evaluation sweeps over. It is the shared
// entry point of the table experiments and the simserve daemon, and it
// is designed to round-trip through JSON: zero-valued fields mean "use
// the repository default", so a Spec naming only a bench is complete.
//
// Specs are content-addressable: ID() hashes the canonical encoding of
// the normalized spec, so two requests that differ only in spelling
// (explicit defaults vs omitted fields) share one address. Every engine
// is deterministic in the spec — same Spec, same Result — which is what
// makes address-keyed result caching sound.
type Spec struct {
	Bench string `json:"bench"`
	Host  string `json:"host,omitempty"`  // "reference" | "nex" | "gem5" (default "nex")
	Accel string `json:"accel,omitempty"` // "dsim" | "rtl" (default "dsim")

	Cores   int    `json:"cores,omitempty"`   // host cores (default 16)
	Devices int    `json:"devices,omitempty"` // accelerator instances (default: bench's)
	Seed    uint64 `json:"seed,omitempty"`    // calibration seed (default 42)

	ClockMHz      int64 `json:"clock_mhz,omitempty"`       // host clock (default 3000)
	AccelClockMHz int64 `json:"accel_clock_mhz,omitempty"` // accel clock (default 2000)

	// NEX overrides (ignored for other hosts).
	EpochNS        int64  `json:"epoch_ns,omitempty"`
	VirtualCores   int    `json:"virtual_cores,omitempty"`
	PhysicalCores  int    `json:"physical_cores,omitempty"`
	SyncMode       string `json:"sync_mode,omitempty"` // "lazy" | "eager" | "hybrid" (default "lazy")
	SyncIntervalNS int64  `json:"sync_interval_ns,omitempty"`
	NoTick         bool   `json:"no_tick,omitempty"`

	// Attachment overrides.
	Fabric        string `json:"fabric,omitempty"`          // "pcie" | "onchip" (default: model's)
	LinkLatencyNS int64  `json:"link_latency_ns,omitempty"` // fabric one-way latency
	DMATarget     string `json:"dma_target,omitempty"`      // "llc" | "l2" (default "llc")
	UseChannel    bool   `json:"use_channel,omitempty"`
	// IOTLBEntries translates every accelerator DMA through a per-device
	// I/O TLB of this many entries (§7 future work); 0 = no IOTLB.
	IOTLBEntries int `json:"iotlb_entries,omitempty"`

	// Robustness overrides. MaxEpochs bounds the host engine (NEX epochs
	// or exact-host steps; 0 = unbounded) — an over-budget run aborts
	// with core.ErrBudgetExceeded instead of wedging its worker. Faults
	// is a deterministic fault plan evaluated by internal/faults: the
	// plan is part of the content-addressed spec, so re-submitting a
	// failing run re-fires the same fault at the same site crossing.
	// Both are omitempty, so fault-free specs keep their historical
	// content addresses.
	MaxEpochs int64       `json:"max_epochs,omitempty"`
	Faults    []FaultSpec `json:"faults,omitempty"`
}

// FaultSpec is the wire form of one fault in a spec's plan (lowered to
// faults.Fault). See internal/faults for the firing semantics.
type FaultSpec struct {
	Site     string  `json:"site"`               // one of faults.Sites()
	Op       string  `json:"op,omitempty"`       // "fail" (default) | "delay"
	Hit      int64   `json:"hit,omitempty"`      // fire on the nth site crossing (default: first)
	Attempts int     `json:"attempts,omitempty"` // armed only while attempt < this (0 = every attempt)
	Rate     float64 `json:"rate,omitempty"`     // probabilistic firing in [0,1] (0 = scheduled only)
	DelayPS  int64   `json:"delay_ps,omitempty"` // delay magnitude (default 1µs for delay ops)
}

// hostKinds / accelKinds / syncModes / dmaTargets map the spec's string
// enums onto engine constants. Strings (not ints) keep the JSON wire
// format self-describing.
var hostKinds = map[string]core.HostKind{
	"reference": core.HostReference,
	"nex":       core.HostNEX,
	"gem5":      core.HostGem5,
}

var accelKinds = map[string]core.AccelKind{
	"dsim": core.AccelDSim,
	"rtl":  core.AccelRTL,
}

var syncModes = map[string]nex.SyncMode{
	"lazy":   nex.Lazy,
	"eager":  nex.Eager,
	"hybrid": nex.Hybrid,
}

var dmaTargets = map[string]core.DMALevel{
	"llc": core.DMALLC,
	"l2":  core.DMAL2,
}

// fabricProfiles are the named interconnect attachments a spec can pick
// (latency is overridable via LinkLatencyNS on top of the profile).
var fabricProfiles = map[string]interconnect.Config{
	"pcie":   interconnect.PCIe400,
	"onchip": interconnect.OnChip4,
}

// defaultFabricName mirrors core.Build's per-accelerator attachment
// default.
func defaultFabricName(model core.AccelModel) string {
	if model == core.AccelProtoacc {
		return "onchip"
	}
	return "pcie"
}

// Upper bounds on the fields that size a system. A spec arrives from the
// wire, and core.Build allocates an LLC, a DRAM controller, a fabric, a
// task buffer, an MMIO window and (when asked) an I/O TLB per device and
// the engines a scheduling slot per core, so these may not be whatever an
// int holds. The catalog needs 8 devices and 16 cores; the IOTLB study
// 64 entries (a miss on a full TLB scans it for the LRU victim).
const (
	MaxDevices      = 64
	MaxCores        = 256
	MaxIOTLBEntries = 4096
)

// Normalized validates s and returns a copy with every defaulted field
// made explicit — the canonical form that ID() hashes and RunSpecAttempt
// executes. The zero-valued and the explicit-default spelling of the
// same run normalize identically.
func (s Spec) Normalized() (Spec, error) {
	b, err := workloads.ByName(s.Bench)
	if err != nil {
		return Spec{}, err
	}
	if s.Host == "" {
		s.Host = core.HostNEX.String()
	}
	if _, ok := hostKinds[s.Host]; !ok {
		return Spec{}, fmt.Errorf("experiments: unknown host %q (want reference, nex, or gem5)", s.Host)
	}
	if s.Accel == "" {
		s.Accel = core.AccelDSim.String()
	}
	if _, ok := accelKinds[s.Accel]; !ok {
		return Spec{}, fmt.Errorf("experiments: unknown accel %q (want dsim or rtl)", s.Accel)
	}
	if s.SyncMode == "" {
		s.SyncMode = "lazy"
	}
	if _, ok := syncModes[s.SyncMode]; !ok {
		return Spec{}, fmt.Errorf("experiments: unknown sync_mode %q (want lazy, eager, or hybrid)", s.SyncMode)
	}
	if s.DMATarget == "" {
		s.DMATarget = "llc"
	}
	if _, ok := dmaTargets[s.DMATarget]; !ok {
		return Spec{}, fmt.Errorf("experiments: unknown dma_target %q (want llc or l2)", s.DMATarget)
	}
	if s.Fabric == "" {
		s.Fabric = defaultFabricName(b.Model)
	}
	if _, ok := fabricProfiles[s.Fabric]; !ok {
		return Spec{}, fmt.Errorf("experiments: unknown fabric %q (want pcie or onchip)", s.Fabric)
	}
	const unbounded = math.MaxInt64
	for _, f := range []struct {
		name   string
		v, max int64
	}{
		{"cores", int64(s.Cores), MaxCores}, {"devices", int64(s.Devices), MaxDevices},
		{"clock_mhz", s.ClockMHz, unbounded}, {"accel_clock_mhz", s.AccelClockMHz, unbounded},
		{"epoch_ns", s.EpochNS, unbounded}, {"virtual_cores", int64(s.VirtualCores), MaxCores},
		{"physical_cores", int64(s.PhysicalCores), MaxCores}, {"sync_interval_ns", s.SyncIntervalNS, unbounded},
		{"link_latency_ns", s.LinkLatencyNS, unbounded}, {"iotlb_entries", int64(s.IOTLBEntries), MaxIOTLBEntries},
	} {
		if f.v < 0 {
			return Spec{}, fmt.Errorf("experiments: spec field %s must not be negative", f.name)
		}
		if f.v > f.max {
			return Spec{}, fmt.Errorf("experiments: spec field %s must not exceed %d", f.name, f.max)
		}
	}
	if s.Cores == 0 {
		s.Cores = 16
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Devices == 0 {
		s.Devices = b.Devices
	}
	if s.ClockMHz == 0 {
		s.ClockMHz = int64(3 * vclock.GHz / vclock.MHz)
	}
	if s.AccelClockMHz == 0 {
		s.AccelClockMHz = int64(2 * vclock.GHz / vclock.MHz)
	}
	if s.LinkLatencyNS == 0 {
		s.LinkLatencyNS = int64(fabricProfiles[s.Fabric].LinkLatency / vclock.Nanosecond)
	}
	if s.MaxEpochs < 0 {
		return Spec{}, fmt.Errorf("experiments: spec field max_epochs must not be negative")
	}
	if len(s.Faults) > 0 {
		fs := make([]FaultSpec, len(s.Faults))
		copy(fs, s.Faults)
		for i := range fs {
			f := &fs[i]
			if _, err := faults.ParseSite(f.Site); err != nil {
				return Spec{}, fmt.Errorf("experiments: fault %d: unknown site %q (want one of %v)", i, f.Site, faults.Sites())
			}
			if f.Op == "" {
				f.Op = faults.OpFail.String()
			}
			op, err := faults.ParseOp(f.Op)
			if err != nil {
				return Spec{}, fmt.Errorf("experiments: fault %d: %w", i, err)
			}
			if f.Hit < 0 || f.Attempts < 0 || f.DelayPS < 0 {
				return Spec{}, fmt.Errorf("experiments: fault %d: hit, attempts and delay_ps must not be negative", i)
			}
			if f.Rate < 0 || f.Rate > 1 {
				return Spec{}, fmt.Errorf("experiments: fault %d: rate must be in [0, 1]", i)
			}
			switch op {
			case faults.OpDelay:
				if f.DelayPS == 0 {
					f.DelayPS = int64(vclock.Microsecond)
				}
			default:
				f.DelayPS = 0 // meaningless for fail; canonicalize away
			}
			if f.Hit == 0 && f.Rate == 0 {
				f.Hit = 1
			}
		}
		s.Faults = fs
	}
	return s, nil
}

// faultPlan lowers the normalized wire plan into the injector's form.
func faultPlan(n Spec) []faults.Fault {
	plan := make([]faults.Fault, len(n.Faults))
	for i, f := range n.Faults {
		site, _ := faults.ParseSite(f.Site) // validated by Normalized
		op, _ := faults.ParseOp(f.Op)
		plan[i] = faults.Fault{Site: site, Op: op, Hit: f.Hit,
			Attempts: f.Attempts, Rate: f.Rate, Delay: f.DelayPS}
	}
	return plan
}

// applyRobustness installs the spec's budget and fault plan on an
// engine configuration for one run attempt. wall is the caller's
// per-run wall budget (simserve's -run-budget; 0 = none). The injector
// seed derives from the spec seed, so the same spec re-fires the same
// schedule; attempt distinguishes retries.
func applyRobustness(cfg *core.Config, n Spec, attempt int, wall time.Duration) {
	cfg.Budget.MaxSteps = n.MaxEpochs
	cfg.Budget.MaxWall = wall
	if len(n.Faults) > 0 {
		cfg.Faults = faults.NewInjector(n.Seed, attempt, faultPlan(n))
	}
}

// CanonicalJSON returns the canonical encoding of the normalized spec:
// a single deterministic JSON object (fixed field order, explicit
// defaults) suitable for hashing and for byte-compare caching.
func (s Spec) CanonicalJSON() ([]byte, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// ID returns the spec's content address: the hex SHA-256 of its
// canonical encoding.
func (s Spec) ID() (string, error) {
	data, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// RunSpecAttempt executes one spec to completion as run attempt number
// attempt, under an optional per-run wall budget (0: none), and returns
// the engine result. The daemon submits Specs over HTTP, experiments
// enumerate them in code, and both execute through this one path. The
// attempt number feeds the fault injector: Attempts-windowed faults
// expire on later attempts (the self-healing retry path) and Rate draws
// differ per attempt. A fault-free spec ignores attempt entirely, so
// retrying a deterministic run cannot change its result.
func RunSpecAttempt(s Spec, attempt int, wall time.Duration) (core.Result, error) {
	n, err := s.Normalized()
	if err != nil {
		return core.Result{}, err
	}
	return runNormalized(n, attempt, wall)
}

// runNormalized assembles and runs one already-normalized spec.
func runNormalized(n Spec, attempt int, wall time.Duration) (core.Result, error) {
	b, cfg, err := Lower(n)
	if err != nil {
		return core.Result{}, err
	}
	applyRobustness(&cfg, n, attempt, wall)
	return executeRun(b, cfg)
}

// RunSpecs validates every spec up front, executes them through the
// sweep executor (respecting SetParallelism, like every experiment),
// and returns results in spec order.
func RunSpecs(specs []Spec) ([]core.Result, error) {
	norm, err := normalizeAll(specs)
	if err != nil {
		return nil, err
	}
	res, _ := execute(norm, false)
	return res, nil
}

// normalizeAll normalizes every spec, naming the first invalid one.
func normalizeAll(specs []Spec) ([]Spec, error) {
	norm := make([]Spec, len(specs))
	for i, s := range specs {
		n, err := s.Normalized()
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		norm[i] = n
	}
	return norm, nil
}

// Lower translates one already-normalized spec (Spec.Normalized) into
// the bench and engine configuration it runs — the one place a Spec
// becomes a core.Config. The only error is a bench the catalog does not
// name, which a normalized spec cannot carry.
func Lower(n Spec) (workloads.Bench, core.Config, error) {
	b, err := workloads.ByName(n.Bench)
	if err != nil {
		return workloads.Bench{}, core.Config{}, err
	}
	cfg := core.Config{
		Host:       hostKinds[n.Host],
		Accel:      accelKinds[n.Accel],
		Model:      b.Model,
		Devices:    n.Devices,
		Cores:      n.Cores,
		Seed:       n.Seed,
		Clock:      vclock.Hz(n.ClockMHz) * vclock.MHz,
		AccelClock: vclock.Hz(n.AccelClockMHz) * vclock.MHz,
		DMATarget:  dmaTargets[n.DMATarget],
		NEXNoTick:  n.NoTick,
		UseChannel: n.UseChannel,
	}
	profile := fabricProfiles[n.Fabric]
	lat := vclock.Duration(n.LinkLatencyNS) * vclock.Nanosecond
	if n.Fabric != defaultFabricName(b.Model) || lat != profile.LinkLatency {
		fab := profile.WithLatency(lat)
		cfg.Fabric = &fab
	}
	if n.IOTLBEntries > 0 {
		cfg.IOTLB = &interconnect.IOTLBConfig{Entries: n.IOTLBEntries}
	}
	cfg.NEX.Epoch = vclock.Duration(n.EpochNS) * vclock.Nanosecond
	cfg.NEX.VirtualCores = n.VirtualCores
	cfg.NEX.PhysicalCores = n.PhysicalCores
	cfg.NEX.Mode = syncModes[n.SyncMode]
	cfg.NEX.SyncInterval = vclock.Duration(n.SyncIntervalNS) * vclock.Nanosecond
	return b, cfg, nil
}
