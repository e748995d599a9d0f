package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change is a
// regression (0 for per-layer metrics, which have none). moves names
// the end-to-end metric and workload a per-layer metric should move.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd are the metrics a user of the service sees, on every
// workload. BENCHMARK.json lists the same names, units, directions and
// bounds.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "miss_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10},
}

// unbounded are end-to-end figures every untraced run records and
// compare reads, but BENCHMARK.json does not list. The hit latencies
// exist on service_mix alone, which has the only hits, and
// BENCHMARK.json metrics must exist on every workload; the misses' 90th
// percentile spreads wider than any bound allowed (README.md).
var unbounded = []metricDef{
	{name: "miss_p90_ms", unit: "ms", better: "lower"},
	{name: "hit_p50_ms", unit: "ms", better: "lower"},
	{name: "hit_p90_ms", unit: "ms", better: "lower"},
}

// perLayer are the traced run's metrics, one block per module.
var perLayer = []metricDef{
	{name: "rng.binomial_ns", unit: "ns", better: "lower", moves: "miss_p50_ms on multi_trial"},

	{name: "plurality.trial_ms_p50", unit: "ms", better: "lower", moves: "miss_p50_ms on single_trial, multi_trial"},
	{name: "plurality.us_per_round", unit: "us", better: "lower", moves: "miss_p50_ms on single_trial, multi_trial"},
	{name: "plurality.allocs_per_trial", unit: "count", better: "lower", moves: "miss_p50_ms on single_trial, multi_trial"},
	{name: "plurality.bytes_per_trial", unit: "bytes", better: "lower", moves: "miss_p50_ms on single_trial, multi_trial"},
	{name: "plurality.fanout_speedup", unit: "x", better: "higher", moves: "miss_p50_ms on multi_trial"},
	{name: "plurality.rounds_per_trial", unit: "count", better: "lower", moves: "none: an exact count that anchors correctness"},

	{name: "service.execute_self_us", unit: "us", better: "lower", moves: "miss_p50_ms on service_mix"},
	{name: "service.encode_us", unit: "us", better: "lower", moves: "miss_p50_ms on service_mix"},
	{name: "service.resp_bytes", unit: "bytes", better: "lower", moves: "the unbounded hit_p50_ms on service_mix"},
	{name: "service.runner_self_us", unit: "us", better: "lower", moves: "miss_p50_ms on service_mix"},
	{name: "service.http_self_us", unit: "us", better: "lower", moves: "the unbounded hit_p50_ms on service_mix"},
	{name: "service.http_server_us_p50", unit: "us", better: "lower", moves: "the unbounded hit_p50_ms on service_mix"},
	{name: "service.cache_hits", unit: "count", better: "higher", moves: "throughput_rps on service_mix"},
	{name: "service.cache_misses", unit: "count", better: "lower", moves: "throughput_rps on service_mix"},
	{name: "service.joined", unit: "count", better: "higher", moves: "throughput_rps on single_trial, cluster_fleet"},
	{name: "service.executions", unit: "count", better: "lower", moves: "throughput_rps on service_mix"},
	{name: "service.rejected", unit: "count", better: "lower", moves: "none: counts refusals, which end-to-end failed reports"},
	{name: "service.hit_ratio", unit: "ratio", better: "higher", moves: "throughput_rps on service_mix"},

	{name: "durable.self_us", unit: "us", better: "lower", moves: "miss_p50_ms on service_mix"},
	{name: "durable.fsyncs_per_miss", unit: "count", better: "lower", moves: "miss_p50_ms, throughput_rps on service_mix"},
	{name: "durable.fsync_us_p50", unit: "us", better: "lower", moves: "miss_p50_ms on service_mix"},
	{name: "durable.fsync_us_p90", unit: "us", better: "lower", moves: "the unbounded miss_p90_ms on service_mix"},
	{name: "durable.create_us_p50", unit: "us", better: "lower", moves: "miss_p50_ms on service_mix"},
	{name: "durable.write_bytes_per_miss", unit: "bytes", better: "lower", moves: "miss_p50_ms on service_mix"},
	{name: "durable.renames_per_miss", unit: "count", better: "lower", moves: "miss_p50_ms on service_mix"},
	{name: "durable.journal_bytes", unit: "bytes", better: "lower", moves: "setup_s of a restarted process on service_mix"},
	{name: "durable.replay_ms", unit: "ms", better: "lower", moves: "setup_s of a restarted process on service_mix"},

	{name: "cluster.run_ms_p50", unit: "ms", better: "lower", moves: "miss_p50_ms on cluster_fleet"},
	{name: "cluster.lookup_ms_p50", unit: "ms", better: "lower", moves: "miss_p50_ms on cluster_fleet"},
	{name: "cluster.self_ms_p50", unit: "ms", better: "lower", moves: "miss_p50_ms, throughput_rps on cluster_fleet"},
	{name: "cluster.rpcs_per_req", unit: "count", better: "lower", moves: "miss_p50_ms, throughput_rps on cluster_fleet"},
	{name: "cluster.append_rpcs_per_req", unit: "count", better: "lower", moves: "miss_p50_ms, throughput_rps on cluster_fleet"},
	{name: "cluster.execute_rpcs_per_req", unit: "count", better: "lower", moves: "miss_p50_ms, throughput_rps on cluster_fleet"},
	{name: "cluster.cache_rpcs_per_req", unit: "count", better: "lower", moves: "miss_p50_ms, throughput_rps on cluster_fleet"},
	{name: "cluster.rpc_bytes_per_req", unit: "bytes", better: "lower", moves: "miss_p50_ms, throughput_rps on cluster_fleet"},
	{name: "cluster.execute_rpc_ms_p50", unit: "ms", better: "lower", moves: "miss_p50_ms on cluster_fleet"},
	{name: "cluster.append_rpc_ms_p50", unit: "ms", better: "lower", moves: "miss_p50_ms on cluster_fleet"},
	{name: "cluster.fsyncs_per_req", unit: "count", better: "lower", moves: "miss_p50_ms, throughput_rps on cluster_fleet"},
	{name: "cluster.journal_bytes", unit: "bytes", better: "lower", moves: "peak_rss_mb on cluster_fleet"},
	{name: "cluster.replay_ms", unit: "ms", better: "lower", moves: "peak_rss_mb, restarted setup_s on cluster_fleet"},
	{name: "cluster.election_s", unit: "s", better: "lower", moves: "setup_s on cluster_fleet"},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, unbounded, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// quantile is the q-quantile of sorted by linear interpolation between
// closest ranks; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quartiles are Python's statistics.quantiles(values, n=4), the
// default "exclusive" method, so spreads read the same here as in any
// script that checks them. Fewer than two values give the value thrice.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var out [3]float64
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, os.ErrNotExist
}

// env describes the machine and toolchain a run measured.
type env struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	TempFS     string `json:"temp_fs"`
	Commit     string `json:"commit"`
}

func readEnv(workDir string) env {
	e := env{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     "unknown",
		TempFS:     "unknown",
		Commit:     gitCommit("."),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(data))
	}
	var st syscall.Statfs_t
	if syscall.Statfs(workDir, &st) == nil {
		e.TempFS = fsName(int64(st.Type))
	}
	return e
}

// fsName names the common Linux filesystem magic numbers.
func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x65735546:
		return "fuse"
	case 0x6969:
		return "nfs"
	}
	return "0x" + strconv.FormatInt(magic, 16)
}

// gitCommit reads the checked-out commit from root/.git without running
// git; "unknown" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
