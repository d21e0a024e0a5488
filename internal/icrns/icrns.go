// Package icrns encodes the paper's case study: the in-car radio navigation
// system of Figures 1–3, its three applications (ChangeVolume, HandleTMC,
// AddressLookup), the five timeliness requirements of Table 1, and the five
// event-model columns (po, pno, sp, pj, bur).
//
// Calibration. Hardware parameters (Figure 1) follow the companion MPA case
// study (Wandeler et al., ISoLA 2004): MMI 22 MIPS, NAV 113 MIPS, RAD
// 11 MIPS, one 72 kbit/s bus. With these values the unloaded HandleTMC chain
// is 1000/11 + 64/9 + 5000/113 + 64/9 + 250/11 = 1925354/11187 ms
// (172.106…) and the AddressLookup chain 79.076 ms (79.07607…), matching the
// paper's 172.106 and (truncated) 79.075. DefaultConfig, every resource
// preemptive fixed priority including an idealized priority bus, is the
// configuration that reproduces the published values; RealisticBusConfig is
// the ablation with a non-preemptive bus.
package icrns

import (
	"math/big"

	"repro/internal/arch"
)

// Combo selects which pair of applications runs concurrently, as in the
// paper's analysis ("the modeling of the scenarios is very similar").
type Combo int

const (
	// ComboCV runs ChangeVolume together with HandleTMC.
	ComboCV Combo = iota
	// ComboAL runs AddressLookup together with HandleTMC.
	ComboAL
)

func (c Combo) String() string {
	if c == ComboCV {
		return "ChangeVolume+HandleTMC"
	}
	return "AddressLookup+HandleTMC"
}

// Column selects the environment models of one Table 1 column.
type Column int

const (
	// ColPO: strictly periodic, all offsets zero (synchronous environment).
	ColPO Column = iota
	// ColPNO: strictly periodic, unknown offsets (asynchronous environment).
	ColPNO
	// ColSP: sporadic event streams.
	ColSP
	// ColPJ: periodic with jitter J = P for the radio station, sporadic
	// for the others.
	ColPJ
	// ColBUR: bursty (J = 2P, D = 0) for the radio station, sporadic for
	// the others.
	ColBUR
)

// Columns lists all Table 1 columns in paper order.
var Columns = []Column{ColPO, ColPNO, ColSP, ColPJ, ColBUR}

func (c Column) String() string {
	switch c {
	case ColPO:
		return "po (F=0)"
	case ColPNO:
		return "pno"
	case ColSP:
		return "sp"
	case ColPJ:
		return "pj (J=P)"
	case ColBUR:
		return "bur (J=2P, D=0)"
	}
	return "?col"
}

// Config selects the scheduling disciplines of the four shared resources.
// The default (everything preemptive fixed priority, including the idealized
// priority bus) is the configuration that reproduces the paper's published
// values; the package comment gives the calibration argument.
type Config struct {
	MMI, NAV, RAD arch.SchedKind
	Bus           arch.SchedKind
}

// DefaultConfig reproduces the paper's analysis configuration.
func DefaultConfig() Config {
	return Config{
		MMI: arch.SchedFPPreempt,
		NAV: arch.SchedFPPreempt,
		RAD: arch.SchedFPPreempt,
		Bus: arch.SchedFPPreempt,
	}
}

// RealisticBusConfig keeps the CPUs preemptive but uses a realistic
// non-preemptive priority bus (RS-485 style), the ablation the package
// comment names.
func RealisticBusConfig() Config {
	c := DefaultConfig()
	c.Bus = arch.SchedFP
	return c
}

// Requirement names of Table 1 rows.
const (
	ReqHandleTMC     = "HandleTMC"
	ReqK2A           = "K2A"
	ReqA2V           = "A2V"
	ReqAddressLookup = "AddressLookup"
)

// Periods of the three applications (ms).
var (
	periodCV  = arch.MS(125, 4) // 32 events per second
	periodTMC = arch.MS(3000, 1)
	periodAL  = arch.MS(1000, 1)
)

// tmcArrival returns the radio-station event model of a column.
func tmcArrival(col Column) arch.EventModel {
	switch col {
	case ColPO:
		return arch.Periodic(periodTMC, arch.MS(0, 1))
	case ColPNO:
		return arch.PeriodicUnknownOffset(periodTMC)
	case ColSP:
		return arch.Sporadic(periodTMC)
	case ColPJ:
		return arch.PeriodicJitter(periodTMC, periodTMC)
	case ColBUR:
		return arch.Bursty(periodTMC, arch.MS(6000, 1), arch.MS(0, 1))
	}
	panic("icrns: unknown column")
}

// Build constructs the case-study system for one combination and column, and
// returns the system plus its requirements keyed by name.
func Build(combo Combo, col Column, cfg Config) (*arch.System, map[string]*arch.Requirement) {
	sys := arch.NewSystem("icrns")
	mmi := sys.AddProcessor("MMI", 22, cfg.MMI)
	nav := sys.AddProcessor("NAV", 113, cfg.NAV)
	rad := sys.AddProcessor("RAD", 11, cfg.RAD)
	bus := sys.AddBus("BUS", 72, cfg.Bus)

	userModel := func(period *big.Rat) arch.EventModel {
		switch col {
		case ColPO:
			return arch.Periodic(period, arch.MS(0, 1))
		case ColPNO:
			return arch.PeriodicUnknownOffset(period)
		default: // sp, pj, bur use sporadic models for the user actors
			return arch.Sporadic(period)
		}
	}

	reqs := map[string]*arch.Requirement{}

	// HandleTMC (Figure 3): the radio receives a TMC message, the navigation
	// system decodes it against the map database, the MMI displays it.
	tmc := sys.AddScenario("TMC", 1, tmcArrival(col))
	tmc.Compute("HandleTMC", rad, 1_000_000).
		Transfer("TMCtoNAV", bus, 64).
		Compute("DecodeTMC", nav, 5_000_000).
		Transfer("TMCtoMMI", bus, 64).
		Compute("UpdateScreen", mmi, 500_000)
	reqs[ReqHandleTMC] = arch.EndToEnd(ReqHandleTMC, tmc)

	switch combo {
	case ComboCV:
		// ChangeVolume (Figure 2): keypress, volume adjustment on the radio
		// (audible), read-back and screen update (visual).
		cv := sys.AddScenario("CV", 2, userModel(periodCV))
		cv.Compute("HandleKeyPress", mmi, 100_000).
			Transfer("SetVolume", bus, 4).
			Compute("AdjustVolume", rad, 100_000).
			Transfer("GetVolume", bus, 4).
			Compute("UpdateScreen", mmi, 500_000)
		reqs[ReqK2A] = arch.Span(ReqK2A, cv, -1, cv.StepIndex("AdjustVolume"))
		reqs[ReqA2V] = arch.Span(ReqA2V, cv,
			cv.StepIndex("AdjustVolume"), cv.StepIndex("UpdateScreen"))
	case ComboAL:
		// AddressLookup: keypress, database lookup on the navigation
		// system, result rendered by the MMI.
		al := sys.AddScenario("AL", 2, userModel(periodAL))
		al.Compute("HandleKeyPress", mmi, 100_000).
			Transfer("LookupReq", bus, 4).
			Compute("DatabaseLookup", nav, 5_000_000).
			Transfer("LookupResp", bus, 64).
			Compute("UpdateScreen", mmi, 500_000)
		reqs[ReqAddressLookup] = arch.EndToEnd(ReqAddressLookup, al)
	}
	return sys, reqs
}
