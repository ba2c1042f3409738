package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// A metricDef names one reported figure and its unit. The two tables
// below are the benchmark's contract with BENCHMARK.json (a test keeps
// them in step): an untraced run prints every endToEnd metric, a traced
// run every perLayer metric.
type metricDef struct{ name, unit string }

// endToEnd are the figures a user of the system sees, defined on every
// workload (see README.md for what an "estimate" is on each).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"estimates_per_s", "1/s"},
	{"estimate_ms_p50", "ms"},
	{"estimate_ms_p90", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the traced run's figures. The first group holds the
// workload-specific end-to-end figures (measured in the traced run's
// untraced half); the rest are per-layer. A layer a workload does not
// reach reads 0.
var perLayer = []metricDef{
	{"hit_rate", "ratio"},
	{"virtual_s_per_estimate", "s"},
	{"probe_mbit_per_estimate", "Mbit"},
	{"failed_share", "ratio"},
	{"ingest_samples_per_s", "1/s"},
	{"scrape_ms_p50", "ms"},
	{"scrape_ms_p90", "ms"},
	{"fed_scrape_ms_p50", "ms"},
	{"fed_scrape_ms_p90", "ms"},
	{"overhead_ms_per_estimate", "ms"},

	{"netsim.events_per_estimate", "count"},
	{"netsim.ns_per_event", "ns"},
	{"netsim.warmup_ms", "ms"},
	{"simprobe.stream_ms_p50", "ms"},
	{"simprobe.stream_ms_p90", "ms"},
	{"simprobe.idle_ms_per_estimate", "ms"},
	{"simprobe.streams_per_estimate", "count"},
	{"run.self_ms_per_estimate", "ms"},
	{"run.fleets_per_estimate", "count"},
	{"run.aborted_fleet_share", "ratio"},
	{"run.grey_fleet_share", "ratio"},
	{"run.discarded_stream_share", "ratio"},
	{"monitor.round_barrier_ms_p50", "ms"},
	{"monitor.round_barrier_ms_p90", "ms"},
	{"monitor.sink_us_p50", "us"},
	{"monitor.sink_us_p90", "us"},
	{"monitor.fleet_stream_ms_p50", "ms"},
	{"tsstore.observe_us_p50", "us"},
	{"tsstore.observe_us_p90", "us"},
	{"tsstore.render_ms_p50", "ms"},
	{"tsstore.render_kb", "KiB"},
	{"tsstore.federation.push_us_p50", "us"},
	{"tsstore.federation.push_us_p90", "us"},
	{"tsstore.federation.applied_share", "ratio"},
	{"tsstore.federation.snapshot_ms_p50", "ms"},
	{"tsstore.backend_errs", "count"},
	{"archive.recover_ms", "ms"},
	{"archive.wal_bytes_per_sample", "B/sample"},
	{"archive.segments_sealed", "count"},
	{"archive.verify_ms", "ms"},
	{"udprobe.dial_ms", "ms"},
	{"udprobe.stream_overrun_ms_p50", "ms"},
	{"udprobe.stream_overrun_ms_p90", "ms"},
	{"udprobe.idle_overrun_us_p90", "us"},
	{"udprobe.flagged_stream_share", "ratio"},
	{"udprobe.loss_share", "ratio"},
	{"udprobe.owd_spread_us_p50", "us"},
	{"proc.alloc_kb_per_estimate", "KiB"},
	{"proc.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procCounters reads the process-wide allocation and GC counters.
type procCounters struct{ allocBytes, gcCycles uint64 }

func readProc() procCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return procCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// liveHeapMB runs a full GC and returns the live heap in MB. Workloads
// call it at the end of every chunk, passing the state they still hold
// so it counts: the heap a steady workload keeps, independent of when
// the GC happened to run.
func liveHeapMB(held ...any) float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	runtime.KeepAlive(held)
	return float64(s[0].Value.Uint64()) / 1e6
}
