package aqp

import "time"

// CostModel simulates query latency for a storage tier.
type CostModel struct {
	// Name labels the tier in experiment output ("cached", "ssd").
	Name string
	// PlanOverhead is charged once per query: parsing, planning, catalog
	// access and task dispatch (the Spark overhead §8.3 discusses).
	PlanOverhead time.Duration
	// RowsPerSecond is the scan throughput of the tier.
	RowsPerSecond float64
	// VirtualRowFactor scales each physically scanned row to the paper's
	// data scale: the in-memory tables here are downscaled stand-ins for
	// 100 GB–536 GB datasets, so one local row represents this many
	// "virtual" rows when charging scan time.
	VirtualRowFactor float64
}

// ScanTime returns the simulated time to scan the given number of physical
// rows (excluding plan overhead).
func (c CostModel) ScanTime(rows int) time.Duration {
	if rows <= 0 || c.RowsPerSecond <= 0 {
		return 0
	}
	virtual := float64(rows) * c.effectiveFactor()
	return time.Duration(virtual / c.RowsPerSecond * float64(time.Second))
}

// QueryTime returns plan overhead plus scan time.
func (c CostModel) QueryTime(rows int) time.Duration {
	return c.PlanOverhead + c.ScanTime(rows)
}

// RowsWithin returns how many physical rows fit into the budget after plan
// overhead — the "largest sample size within the requested time bound" that
// time-bound engines predict (§7).
func (c CostModel) RowsWithin(budget time.Duration) int {
	avail := budget - c.PlanOverhead
	if avail <= 0 {
		return 0
	}
	rows := avail.Seconds() * c.RowsPerSecond / c.effectiveFactor()
	// A budget past any sample reads it all; keep the conversion in range.
	return int(min(rows, 1<<62))
}

func (c CostModel) effectiveFactor() float64 {
	if c.VirtualRowFactor <= 0 {
		return 1
	}
	return c.VirtualRowFactor
}

// Default tiers. The throughput ratio (memory ≈ 25× SSD) and the sizable
// fixed overhead follow the paper's observations: cached runs are dominated
// by Spark's per-query overhead while SSD runs are I/O bound.
var (
	// CachedCost models fully memory-resident samples.
	CachedCost = CostModel{
		Name:             "cached",
		PlanOverhead:     400 * time.Millisecond,
		RowsPerSecond:    25e6,
		VirtualRowFactor: 1,
	}
	// SSDCost models samples read from SSD-backed HDFS.
	SSDCost = CostModel{
		Name:             "ssd",
		PlanOverhead:     1200 * time.Millisecond,
		RowsPerSecond:    1e6,
		VirtualRowFactor: 1,
	}
)

// Scaled returns a copy charging each physical row as f virtual rows.
func (c CostModel) Scaled(f float64) CostModel {
	c.VirtualRowFactor = f
	return c
}
