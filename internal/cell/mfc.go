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
	ls   []byte

	// Transfers and Bytes count DMA operations issued by this MFC.
	Transfers uint64
	Bytes     uint64
}

// NewMFC builds an MFC moving data between main and the given local
// store.
func NewMFC(cfg MFCConfig, eib *EIB, main *mem.Main, ls []byte) *MFC {
	return &MFC{cfg: cfg, eib: eib, main: main, ls: ls}
}

// DMA performs a blocking transfer of n bytes between main memory at
// mainAddr and the local store at lsAddr, issued at time now, and returns
// the completion time. The data is really copied; the returned time
// includes command setup, bus arbitration/queuing and payload time.
func (m *MFC) DMA(now Clock, dir DMADir, mainAddr mem.Addr, lsAddr uint32, n uint32) Clock {
	if n == 0 {
		return now
	}
	if uint64(lsAddr)+uint64(n) > uint64(len(m.ls)) {
		// Internal invariant, unreachable because the software caches DMA
		// only into their own regions, which vm.validate fits in the
		// local store.
		panic(fmt.Sprintf("cell: DMA overruns local store: [%#x,%#x) of %#x",
			lsAddr, lsAddr+n, len(m.ls)))
	}
	switch dir {
	case DMAGet:
		m.main.ReadBytes(mainAddr, m.ls[lsAddr:lsAddr+n])
	case DMAPut:
		m.main.WriteBytes(mainAddr, m.ls[lsAddr:lsAddr+n])
	default:
		// Internal invariant, unreachable because DMADir has only the two
		// values above.
		panic("cell: bad DMA direction")
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

// CostOnly models a transfer's timing without moving data. Used for
// traffic whose bytes live outside simulated memory contents (e.g.
// migration context packages) but whose bus occupancy must be charged.
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
