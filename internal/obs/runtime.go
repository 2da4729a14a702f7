package obs

import "runtime"

// RuntimeStats is a point-in-time snapshot of the Go runtime health gauges
// exposed by /metrics: scheduler pressure (goroutines), memory footprint,
// and cumulative GC cost.
type RuntimeStats struct {
	// Goroutines is the live goroutine count.
	Goroutines int
	// HeapAllocBytes is the live heap in bytes.
	HeapAllocBytes uint64
	// HeapSysBytes is the heap memory obtained from the OS.
	HeapSysBytes uint64
	// GCPauseTotalSeconds is the cumulative stop-the-world pause time.
	GCPauseTotalSeconds float64
	// GCCycles is the number of completed GC cycles.
	GCCycles uint32
}

// ReadRuntimeStats samples the runtime. It calls runtime.ReadMemStats, which
// briefly stops the world — cheap at scrape frequency, not per request.
func ReadRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		Goroutines:          runtime.NumGoroutine(),
		HeapAllocBytes:      ms.HeapAlloc,
		HeapSysBytes:        ms.HeapSys,
		GCPauseTotalSeconds: float64(ms.PauseTotalNs) / 1e9,
		GCCycles:            ms.NumGC,
	}
}
