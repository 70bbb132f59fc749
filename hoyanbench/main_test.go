package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hoyan/internal/gen"
	"hoyan/internal/serve"
)

// TestEveryWorkloadEmitsEveryMetric runs each workload for a moment, untraced
// and traced, and checks the oracle passed and that every metric is printed
// with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	defer func(n int) { setups = n }(setups)
	setups = 1
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			d := time.Second
			if name == "tenants-mixed-wan2" {
				// Long enough for each phase of a traced run to hold a
				// block of arrivals at no more than the fixed rate.
				d = 5 * time.Second
			}
			cfg := runConfig{Seed: 7, Duration: d, Trace: traced, TraceDir: t.TempDir()}
			rep, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", name, traced, err)
			}
			res := rep.result(traced)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if rep.checked == 0 {
				t.Errorf("%s (traced=%v): the oracle checked no answer", name, traced)
			}
			defs := e2eMetrics
			if traced {
				defs = layerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (traced=%v): %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit == "" {
					t.Errorf("%s (traced=%v): metric %s missing or without unit", name, traced, d.Name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestOracleRejectsFlippedDigest asks hoyand a real what-if question and
// checks the oracle accepts its answer but rejects the same answer with one
// digest character changed, both against the reference and on repeat.
func TestOracleRejectsFlippedDigest(t *testing.T) {
	g := gen.Generate(gen.WAN(1))
	d, err := startDaemon([]serve.TenantConfig{{Name: "t", APIKey: "k"}}, g.Net, g.Inputs, g.Flows)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	cl := d.client("k")
	defer cl.close()
	q := serve.QueryRequest{Kind: "whatif", FailLinks: linkRefs(g.Net)[:1]}
	st, code, err := cl.submit(q, true)
	if err != nil || code != http.StatusOK || st.Result == nil {
		t.Fatalf("query: HTTP %d, %v", code, err)
	}
	want, err := newReference(g.Net.Clone(), g.Inputs, g.Flows).whatIf(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAnswer(st.Result, want); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}

	flipped := *st.Result
	b := []byte(flipped.RIBDigest)
	if b[0] == '0' {
		b[0] = '1'
	} else {
		b[0] = '0'
	}
	flipped.RIBDigest = string(b)
	var wrong *wrongAnswer
	if err := sameAnswer(&flipped, want); !errors.As(err, &wrong) {
		t.Errorf("flipped digest accepted against the reference: %v", err)
	}
	book := newAnswerBook()
	if err := book.record(requestKey(q), st.Result); err != nil {
		t.Fatal(err)
	}
	if err := book.record(requestKey(q), &flipped); !errors.As(err, &wrong) {
		t.Errorf("flipped digest accepted as a repeat: %v", err)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and metric
// lists in step with what the benchmark prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.Name || listed[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.Name, d.Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}
