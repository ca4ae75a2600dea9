package graph

import "sync"

// fatTreeMetricCacheSize bounds how many rack counts FatTreeMetric keeps.
// A metric costs 4·racks² bytes (64 MiB at 4096 racks), and a process
// rarely works with more than a few rack counts at once.
const fatTreeMetricCacheSize = 8

// fatTreeEntry holds one rack count's metric; once makes concurrent first
// users share a single build, outside the cache lock.
type fatTreeEntry struct {
	once sync.Once
	m    *Metric
}

var fatTreeMetrics struct {
	mu      sync.Mutex
	entries map[int]*fatTreeEntry
}

// FatTreeMetric returns a process-wide shared copy of
// FatTreeRacks(racks).Metric(), building it on first use. The metric is
// immutable, so every grid, lease and engine session at one rack count
// shares one metric, and through it one k_e table. The cache holds at
// most fatTreeMetricCacheSize rack counts and is cleared when a new one
// would overflow it; a caller always gets a correct metric, the next
// caller for an evicted count just rebuilds it. It panics if racks < 1.
func FatTreeMetric(racks int) *Metric {
	if racks < 1 {
		panic("graph: FatTreeMetric requires racks >= 1")
	}
	c := &fatTreeMetrics
	c.mu.Lock()
	e, ok := c.entries[racks]
	if !ok {
		if c.entries == nil || len(c.entries) >= fatTreeMetricCacheSize {
			c.entries = make(map[int]*fatTreeEntry, fatTreeMetricCacheSize)
		}
		e = new(fatTreeEntry)
		c.entries[racks] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.m = FatTreeRacks(racks).Metric() })
	return e.m
}
