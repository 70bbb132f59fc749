package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"hoyan/internal/telemetry"
)

// The benchmark traces with the program's own span type: a nil
// *telemetry.Tracer (untraced runs) makes every span call a no-op, so the
// traced and untraced loops run the same code.

// selfTimes sums each span name's self time: its duration minus the
// durations of its direct children. The benchmark's children run one after
// another inside their parent, so this is the part of the parent's interval
// no child covers. It is signed: where children add up to more than their
// parent (on whatif-wan4, replayed layer calls that took longer on the
// benchmark's engine than the service's recorded run), the overshoot shows
// as a negative self time, and a note in rep counts the spans it happened to.
func selfTimes(rep *report, spans []telemetry.SpanRecord) map[string]time.Duration {
	childSum := make(map[string]time.Duration)
	for _, s := range spans {
		if s.ParentID != "" {
			childSum[s.ParentID] += s.Duration
		}
	}
	out := make(map[string]time.Duration)
	overrun := make(map[string]int)
	for _, s := range spans {
		self := s.Duration - childSum[s.SpanID]
		if self < 0 {
			overrun[s.Name]++
		}
		out[s.Name] += self
	}
	names := make([]string, 0, len(overrun))
	for n := range overrun {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		rep.notes = append(rep.notes, fmt.Sprintf("trace: %d %s spans shorter than their children", overrun[n], n))
	}
	return out
}

// perOpSelf converts the span self times into mean milliseconds per
// operation under each metric name ("bgp.fixpoint" → "bgp.fixpoint_ms").
func perOpSelf(rep *report, self map[string]time.Duration, ops int, names ...string) {
	for _, n := range names {
		rep.layers[n+"_ms"] = ratio(ms(self[n]), float64(ops))
	}
}

// finishTrace writes the run's spans as Chrome trace_event JSON under the
// trace directory and notes where they went.
func finishTrace(rep *report, cfg runConfig, workload string, tr *telemetry.Tracer) error {
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.TraceDir, fmt.Sprintf("%s-seed%d.json", workload, cfg.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, tr.Spans()); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep.notes = append(rep.notes, "trace: "+path)
	return nil
}

// allocWindow sums the heap bytes allocated by the calls it brackets.
type allocWindow struct {
	alloc, start uint64
}

func (m *allocWindow) begin() { m.start = heapAllocBytes() }

func (m *allocWindow) end() { m.alloc += heapAllocBytes() - m.start }

// gcMeter measures the GC's share of the process's busy CPU time over a
// traced loop. The runtime updates its CPU classes only when a GC cycle
// ends, so startGC and share each force a cycle: the window is then exactly
// the loop (plus the closing cycle's own work), not the stretch between two
// cycles that happened to end around it.
type gcMeter struct{ gc, busy float64 }

func startGC() gcMeter {
	runtime.GC()
	gc, busy := gcCPU()
	return gcMeter{gc: gc, busy: busy}
}

func (m gcMeter) share() float64 {
	runtime.GC()
	gc, busy := gcCPU()
	return ratio(gc-m.gc, busy-m.busy)
}
