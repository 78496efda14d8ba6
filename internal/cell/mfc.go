package cell

import (
	"fmt"

	"herajvm/internal/mem"
)

// DMADir is the direction of a DMA transfer from the SPE's perspective.
type DMADir uint8

const (
	// DMAGet moves main memory into the local store (mfc_get).
	DMAGet DMADir = iota
	// DMAPut moves local store out to main memory (mfc_put).
	DMAPut
)

// MFCConfig calibrates a Memory Flow Controller.
type MFCConfig struct {
	// SetupCycles is the per-command cost of constructing and enqueuing
	// one DMA command from SPE code plus the blocking completion wait
	// (channel read). The paper reports "about 30-50 cycles, not
	// including the data transfer itself" (§3.2.1) for the enqueue alone;
	// the full blocking round trip modelled here also covers the tag
	// status wait.
	SetupCycles uint32
	// MinTransfer is the smallest unit the bus actually carries; small
	// requests are rounded up (the real MFC transfers at least one
	// 128-byte cache line efficiently and pads small transfers).
	MinTransfer uint32
}

// DefaultMFCConfig returns the calibrated MFC parameters.
func DefaultMFCConfig() MFCConfig {
	return MFCConfig{SetupCycles: 150, MinTransfer: 128}
}

// MFC is the Memory Flow Controller attached to one SPE. All data
// movement between an SPE's local store and main memory goes through its
// MFC as explicit DMA transfers carried by the EIB.
type MFC struct {
	cfg  MFCConfig
	eib  *EIB
	main *mem.Main
	ls   mem.Pages // the local store's host pages
	size uint32    // the local store's simulated size

	// Transfers and Bytes count DMA operations issued by this MFC.
	Transfers uint64
	Bytes     uint64
}

// NewMFC builds an MFC moving data between main and a local store of
// size bytes whose host pages are ls (mem.NewPages(size)). A DMA maps
// the pages it fills, so the table may start empty. The MFC owns ls:
// every reader reaches the store through a core that holds its MFC, so
// ls's pages go back to the page pool once the MFC is unreachable, and
// ls may be given to no other MFC.
func NewMFC(cfg MFCConfig, eib *EIB, main *mem.Main, ls mem.Pages, size uint32) *MFC {
	m := &MFC{cfg: cfg, eib: eib, main: main, ls: ls, size: size}
	mem.OwnPages(m, ls)
	return m
}

// LocalStoreSize returns the simulated size of the MFC's local store,
// the bound every local-store address is checked against.
func (m *MFC) LocalStoreSize() uint32 { return m.size }

// DMA performs a blocking transfer of n bytes between main memory at
// mainAddr and the local store at lsAddr, issued at time now, and returns
// the completion time. The data is really copied, page by page: a get
// maps the local-store pages it fills, and a put from a page never
// written writes zeros and maps nothing. The returned time, billed by
// CostOnly, includes command setup, bus arbitration/queuing and payload
// time; it does not depend on which pages are mapped.
func (m *MFC) DMA(now Clock, dir DMADir, mainAddr mem.Addr, lsAddr uint32, n uint32) Clock {
	if n == 0 {
		return now
	}
	if end := uint64(lsAddr) + uint64(n); end > uint64(m.size) {
		// Internal invariant, unreachable because the software caches DMA
		// only into their own regions, which vm.validate fits in the
		// local store.
		panic(fmt.Sprintf("cell: DMA overruns local store: [%#x,%#x) of %#x",
			lsAddr, end, m.size))
	}
	switch dir {
	case DMAGet:
		m.main.ReadPages(mainAddr, m.ls, lsAddr, n)
	case DMAPut:
		m.main.WritePages(mainAddr, m.ls, lsAddr, n)
	default:
		// Internal invariant, unreachable because DMADir has only the two
		// values above.
		panic("cell: bad DMA direction")
	}
	return m.CostOnly(now, n)
}

// Latency is what a transfer of n bytes takes on an idle bus: command
// setup, then the EIB's arbitration and payload. It reserves nothing,
// so a caller may predict a transfer without moving a simulated number.
func (m *MFC) Latency(n uint32) Clock {
	return Clock(m.cfg.SetupCycles) + m.eib.Duration(max(n, m.cfg.MinTransfer))
}

// CostOnly models a transfer's timing without moving data: the same
// Transfers, Bytes and EIB reservation as a DMA of n bytes, with no
// copy. It serves traffic whose bytes the simulator never reads back —
// the code cache's code and TIB fills, since the executor runs the
// JIT's compiled form — but whose bus occupancy must be charged.
func (m *MFC) CostOnly(now Clock, n uint32) Clock {
	if n == 0 {
		return now
	}
	carried := n
	if carried < m.cfg.MinTransfer {
		carried = m.cfg.MinTransfer
	}
	m.Transfers++
	m.Bytes += uint64(carried)
	issue := now + Clock(m.cfg.SetupCycles)
	return m.eib.Transfer(issue, carried)
}
