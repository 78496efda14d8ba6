package cell

import (
	"fmt"

	"herajvm/internal/isa"
	"herajvm/internal/mem"
	"herajvm/internal/profile"
)

// DefaultClockHz is the Cell's 3.2 GHz core clock, the rate a zero
// Config.ClockHz falls back to.
const DefaultClockHz = 3.2e9

// Config describes a Cell-like machine instance.
type Config struct {
	// MainMemory is the main-memory size in bytes (the PS3 exposes
	// 256 MB; the default here is 64 MB, plenty for the workloads).
	MainMemory uint32
	// ClockHz is the core clock rate used to convert cycle counts to
	// wall time in reports (simulation itself is cycle-accurate and
	// rate-independent). 0 means DefaultClockHz, the Cell's 3.2 GHz.
	ClockHz float64
	// Topology declares the machine's core mix (the PS3 default is
	// 1 PPE + 6 SPEs; see PS3Topology and ParseTopology).
	Topology Topology
	// LocalStore is the local store size of every local-store core
	// (256 KB on real silicon).
	LocalStore uint32
	EIB        EIBConfig
	MFC        MFCConfig
}

// predictorBits sizes each hardware branch predictor's table (2^12
// entries). Like the PPE's cache geometry (ppeMemConfig), it is the same
// on every machine.
const predictorBits = 12

// DefaultConfig returns a PS3-like machine: one PPE, six SPEs, 256 KB
// local stores, 64 MB main memory.
func DefaultConfig() Config {
	return Config{
		MainMemory: 64 << 20,
		ClockHz:    DefaultClockHz,
		Topology:   PS3Topology(6),
		LocalStore: 256 << 10,
		EIB:        DefaultEIBConfig(),
		MFC:        DefaultMFCConfig(),
	}
}

// EffectiveClockHz returns the configured clock rate, defaulting a zero
// ClockHz to DefaultClockHz (hand-built Configs commonly leave it unset).
func (c Config) EffectiveClockHz() float64 {
	if c.ClockHz > 0 {
		return c.ClockHz
	}
	return DefaultClockHz
}

// Core is one simulated processing element. The VM executes Java threads
// on cores; the core owns the local cycle clock and the per-core
// hardware its kind's spec declares (local store + MFC for local-store
// kinds, cache hierarchy and branch predictor for hardware-cached
// kinds) plus all statistics.
type Core struct {
	Kind isa.CoreKind
	// ID is the core's index among cores of its kind: 0..N-1.
	ID int
	// Index is the core's position in Machine.Cores() — the global,
	// topology-order index the scheduler keys its calendars by.
	Index int
	// Now is the core's local clock in cycles.
	Now Clock

	// LS is the local store's host backing (local-store kinds only): a
	// one-level table of 4 KB pages, 64 for a 256 KB store. A page is
	// mapped by the first DMA that fills it and reads as zero until then,
	// so the table holds the pages the data cache has filled and no more.
	// Only the data cache reads it, through this core, whose MFC owns the
	// table: its pages go back to the page pool once the MFC is
	// unreachable. The simulated size is MFC.LocalStoreSize.
	LS mem.Pages
	// MFC is the memory flow controller (local-store kinds only).
	MFC *MFC

	// Mem is the hardware cache hierarchy (hardware-cached kinds only).
	Mem *PPEMem
	// BP is the branch predictor (kinds whose spec declares one).
	BP *BranchPredictor

	Stats profile.CoreStats
}

// String names the core, e.g. "PPE" or "SPE2". The first core of a
// service-hosting kind keeps the bare historical name; further
// same-kind cores are numbered.
func (c *Core) String() string {
	if c.Kind.HostsServices() && c.ID == 0 {
		return c.Kind.String()
	}
	return fmt.Sprintf("%s%d", c.Kind, c.ID)
}

// Charge advances the core's clock by n cycles billed to the given
// operation class.
func (c *Core) Charge(class isa.OpClass, n uint64) {
	c.Now += n
	c.Stats.Charge(class, n)
}

// SettleFastForward bills a chain of superblock replays in one step:
// the per-class counters by the chain's summed class vector and instrs
// retired instructions, of which ffInstrs fast-forwarded, across blocks
// replayed blocks — exactly the totals per-instruction Charge calls
// would have produced. The replay advanced the clock as it went.
func (c *Core) SettleFastForward(classes *[isa.NumClasses]uint64, instrs, ffInstrs, blocks uint64) {
	for i, n := range classes {
		c.Stats.Cycles[i] += n
	}
	c.Stats.Instrs += instrs
	c.Stats.FastForwardedBlocks += blocks
	c.Stats.FastForwardedInstrs += ffInstrs
}

// AdvanceTo moves the clock forward to at least t, billing the gap as
// idle time. It never moves the clock backwards.
func (c *Core) AdvanceTo(t Clock) {
	if t > c.Now {
		c.Stats.Idle += t - c.Now
		c.Now = t
	}
}

// Machine is a configured Cell-like processor: main memory, the bus, and
// the cores the topology declares, grouped by kind. Consumers address
// cores through the kind-indexed accessors (CoresOf, CoreAt, HasKind);
// there is no structural assumption that any kind exists beyond the one
// PPE the topology validation guarantees.
type Machine struct {
	Cfg Config
	Mem *mem.Main
	EIB *EIB

	cores  []*Core
	byKind [isa.NumKinds][]*Core
}

// NewMachine builds a machine from its configuration.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.MainMemory < 1<<20 {
		return nil, fmt.Errorf("cell: main memory %d too small (min 1 MB)", cfg.MainMemory)
	}
	if cfg.LocalStore < 16<<10 {
		return nil, fmt.Errorf("cell: local store %d too small (min 16 KB)", cfg.LocalStore)
	}
	for _, g := range cfg.Topology {
		if !g.Kind.Known() {
			return nil, fmt.Errorf("cell: topology names unknown core kind %s", g.Kind)
		}
	}
	m := &Machine{
		Cfg: cfg,
		Mem: mem.NewMain(cfg.MainMemory),
		EIB: NewEIB(cfg.EIB),
	}
	for _, g := range cfg.Topology {
		for i := 0; i < g.Count; i++ {
			c := &Core{
				Kind:  g.Kind,
				ID:    len(m.byKind[g.Kind]),
				Index: len(m.cores),
			}
			// The kind's spec decides the per-core hardware: local-store
			// kinds get a scratchpad and an MFC (the software caches layer
			// on top in the VM); hardware-cached kinds get the coherent
			// cache hierarchy; predictor-equipped kinds get a predictor.
			if g.Kind.UsesLocalStore() {
				c.LS = mem.NewPages(cfg.LocalStore)
				c.MFC = NewMFC(cfg.MFC, m.EIB, m.Mem, c.LS, cfg.LocalStore)
			} else {
				c.Mem = NewPPEMem(ppeMemConfig())
			}
			if g.Kind.PredictsBranches() {
				c.BP = NewBranchPredictor(predictorBits)
			}
			m.cores = append(m.cores, c)
			m.byKind[g.Kind] = append(m.byKind[g.Kind], c)
		}
	}
	return m, nil
}

// Cores returns all cores in topology order. The slice is a copy;
// callers may reorder it freely without perturbing the machine.
func (m *Machine) Cores() []*Core {
	out := make([]*Core, len(m.cores))
	copy(out, m.cores)
	return out
}

// NumCores returns the total core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// CoresOf returns the cores of one kind, ordered by ID (nil if the
// topology has none). The slice is a copy; callers may reorder it.
func (m *Machine) CoresOf(kind isa.CoreKind) []*Core {
	src := m.ofKind(kind)
	if src == nil {
		return nil
	}
	out := make([]*Core, len(src))
	copy(out, src)
	return out
}

// ofKind is byKind[kind], nil for an unknown kind.
func (m *Machine) ofKind(kind isa.CoreKind) []*Core {
	if !kind.Known() {
		return nil
	}
	return m.byKind[kind]
}

// HasKind reports whether the machine has at least one core of the kind.
func (m *Machine) HasKind(kind isa.CoreKind) bool { return len(m.ofKind(kind)) > 0 }

// CoreAt returns core id of the given kind.
func (m *Machine) CoreAt(kind isa.CoreKind, id int) *Core { return m.byKind[kind][id] }

// Describe renders the machine's core mix, e.g. "1 PPE + 6 SPEs".
func (m *Machine) Describe() string { return m.Cfg.Topology.Describe() }

// MaxClock returns the largest core clock — the machine's notion of
// elapsed time once a run completes.
func (m *Machine) MaxClock() Clock {
	var t Clock
	for _, c := range m.cores {
		if c.Now > t {
			t = c.Now
		}
	}
	return t
}
