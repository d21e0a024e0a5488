// Radionav reproduces selected cells of the paper's Table 1 on the in-car
// radio navigation case study (Figures 1-3): the HandleTMC and AddressLookup
// requirements under synchronous (po) and asynchronous (pno) environments,
// using the high-level architecture API and the exact model checker.
//
// Expected output (paper values in parentheses):
//
//	HandleTMC (+ AddressLookup)  po  = 172.106 (172.106)
//	HandleTMC (+ AddressLookup)  pno = 239.081 (239.080, truncated print)
//	AddressLookup (+ HandleTMC)  po  = 79.076  (79.075, truncated print)
//	AddressLookup (+ HandleTMC)  pno = 79.076
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/icrns"
)

func main() {
	cells := []struct {
		row   icrns.Row
		col   icrns.Column
		paper string
	}{
		{icrns.Table1Rows[1], icrns.ColPO, "172.106"},
		{icrns.Table1Rows[1], icrns.ColPNO, "239.080"},
		{icrns.Table1Rows[4], icrns.ColPO, "79.075"},
		{icrns.Table1Rows[4], icrns.ColPNO, "79.075"},
	}
	opts := icrns.CellOptions{Cfg: icrns.DefaultConfig(), MaxStates: 2_000_000}
	for _, c := range cells {
		start := time.Now()
		cells, err := icrns.Cells(c.row.Combo, c.col, []string{c.row.Req}, opts)
		if err != nil {
			log.Fatal(err)
		}
		res := cells[c.row.Req]
		fmt.Printf("%-30s %-16v = %s ms   paper: %s   (%d states, %v)\n",
			c.row.Label, c.col, res, c.paper,
			res.Stats.Stored, time.Since(start).Round(time.Millisecond))
	}
}
