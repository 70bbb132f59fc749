package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ Name, Unit string }

// e2eMetrics are printed by untraced runs (--trace 0) on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb_per_op", "MiB"},
}

// layerMetrics are printed by traced runs (--trace 1) on every workload; a
// layer the workload never calls reads 0. Unless a name says otherwise, an
// "_ms" metric is the layer's mean self time per operation.
var layerMetrics = []metricDef{
	{"config.parse_ms", "ms"},
	{"change.apply_ms", "ms"},
	{"isis.spf_ms", "ms"},
	{"ec.route_ms", "ms"},
	{"ec.route_reps", "count"},
	{"ec.expand_ms", "ms"},
	{"ec.flow_ms", "ms"},
	{"ec.flow_reps", "count"},
	{"bgp.fixpoint_ms", "ms"},
	{"bgp.rounds", "count"},
	{"bgp.messages", "count"},
	{"bgp.alloc_mb", "MiB"},
	{"netmodel.global_rib_ms", "ms"},
	{"netmodel.rib_rows", "count"},
	{"netmodel.diff_ms", "ms"},
	{"traffic.forward_ms", "ms"},
	{"traffic.flows", "count"},
	{"core.fork_ms", "ms"},
	{"core.spf_reuse_ratio", "ratio"},
	{"core.bgp_dirty_ratio", "ratio"},
	{"core.bgp_warm_rounds", "count"},
	{"core.flow_reuse_ratio", "ratio"},
	{"core.fork_full_frac", "ratio"},
	{"rcl.parse_ms", "ms"},
	{"rcl.check_ms_per_spec", "ms"},
	{"intent.verify_ms", "ms"},
	{"kfail.scenario_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p90_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.rejected", "count"},
	{"whatif_p50_ms", "ms"},
	{"verify_p50_ms", "ms"},
	{"plan_p50_ms", "ms"},
	{"failed_frac", "ratio"},
	{"dsim.upload_ms", "ms"},
	{"dsim.route_stage_ms", "ms"},
	{"dsim.traffic_stage_ms", "ms"},
	{"dsim.rib_cache_hit_ratio", "ratio"},
	{"wire.bytes_per_task", "bytes"},
	{"wire.encode_ms", "ms"},
	{"wire.decode_ms", "ms"},
	{"objstore.put_ms", "ms"},
	{"objstore.get_ms", "ms"},
	{"objstore.ops", "count"},
	{"mq.msgs", "count"},
	{"taskdb.ops", "count"},
	{"gc.loop_cpu_share", "ratio"},
	{"loadgen.lag_p90_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_ms", "ms"},
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int
	checked           int // answers the oracle compared against a reference
	e2e               map[string]float64
	layers            map[string]float64
	samples           map[string]int // sample count behind each percentile
	hostSteal         float64        // steal share of CPU time during the timed loop
	notes             []string
}

func newReport() *report {
	return &report{
		e2e:     map[string]float64{},
		layers:  map[string]float64{},
		samples: map[string]int{},
	}
}

// result renders the metric set the run mode promises.
func (r *report) result(traced bool) resultLine {
	defs, vals := e2eMetrics, r.e2e
	if traced {
		defs, vals = layerMetrics, r.layers
	}
	out := resultLine{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// setLatencies records the latency percentiles of one sample set.
func (r *report) setLatencies(lat []float64) {
	r.e2e["latency_p50_ms"] = percentile(lat, 0.5)
	r.e2e["latency_p90_ms"] = percentile(lat, 0.9)
	r.samples["latency"] = len(lat)
}

// percentile interpolates linearly between the closest ranks of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// repeatSetup builds a workload's state n times and keeps the last one; the
// earlier ones are torn down before the next build starts. It returns the
// median build time in seconds, so one slow build does not move setup_s.
func repeatSetup[T any](n int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	runtime.GC()
	return last, percentile(times, 0.5), nil
}

// heapAllocBytes is the cumulative count of bytes the heap allocated.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCPU reads the runtime's cumulative GC CPU time and its busy (non-idle)
// CPU time, both in seconds.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// resident-set high-water mark, so peakRSSMiB reports the timed loop's peak
// rather than set-up's. Where the reset is unavailable the peak covers the
// whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kib float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kib); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// loopMeter measures what a timed loop costs beyond its latencies: heap
// bytes allocated per operation, and the share of the VM's CPU time the
// hypervisor took (steal), which the meta line reports so a slow run on a
// contended host can be told apart.
type loopMeter struct {
	alloc        uint64
	steal, total float64
}

// startLoop also resets the peak RSS, so it too covers the timed loop.
func startLoop() loopMeter {
	resetPeakRSS()
	steal, total := cpuSteal()
	return loopMeter{alloc: heapAllocBytes(), steal: steal, total: total}
}

func (m loopMeter) allocPerOpMiB(ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(heapAllocBytes()-m.alloc) / float64(ops) / (1 << 20)
}

func (m loopMeter) stealShare() float64 {
	steal, total := cpuSteal()
	return ratio(steal-m.steal, total-m.total)
}

// cpuSteal reads the host-wide steal and total CPU time from /proc/stat
// (zero where it is unavailable).
func cpuSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		var v float64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// repoRoot locates the Hoyan module the benchmark measures: the working
// directory when run from the checkout root, its parent when run from the
// benchmark's own directory (go test).
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module hoyan\n") {
			return dir
		}
	}
	return "."
}

// sourceCommit reads the checked-out commit from .git, or "unknown" in a
// checkout without git metadata (sourceDigest still identifies the code).
func sourceCommit() string {
	gitDir := filepath.Join(repoRoot(), ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the measured program's Go sources (every .go file and
// go.mod outside the benchmark's directory), identifying the code a result
// belongs to even where no commit is recorded.
func sourceDigest() string {
	root := repoRoot()
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "hoyanbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
