package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/intent"
	"hoyan/internal/netmodel"
	"hoyan/internal/serve"
	"hoyan/internal/telemetry"
)

// whatif-wan4: one client sends synchronous (?wait=1) what-if queries to a
// warm hoyand loaded with gen.WAN(4), each after the previous answer.

// whatifSeq draws the query stream: every single-link failure plus every
// sixth device (name order, seeded offset, so each role keeps its share)
// failed, in a seeded order; every fourth query carries one spec of the RCL
// corpus (dealt in seeded order) and every tenth repeats an earlier query.
type whatifSeq struct {
	rnd   *rand.Rand
	pop   []serve.QueryRequest
	specs func() string
	n     int
	sent  []serve.QueryRequest
}

func newWhatifSeq(net *config.Network, seed int64) *whatifSeq {
	rnd := rand.New(rand.NewSource(seed))
	var pop []serve.QueryRequest
	for _, l := range linkRefs(net) {
		pop = append(pop, serve.QueryRequest{Kind: "whatif", FailLinks: []serve.LinkRef{l}})
	}
	devices := deviceNames(net)
	for i := rnd.Intn(6); i < len(devices); i += 6 {
		pop = append(pop, serve.QueryRequest{Kind: "whatif", FailDevices: []string{devices[i]}})
	}
	return &whatifSeq{rnd: rnd, pop: shuffled(rnd, pop), specs: dealer(rnd, corpus(net))}
}

func (s *whatifSeq) next() serve.QueryRequest {
	s.n++
	if s.n%10 == 0 {
		return s.sent[s.rnd.Intn(len(s.sent))]
	}
	q := s.pop[len(s.sent)%len(s.pop)]
	if len(s.sent)%4 == 3 {
		q.Specs = []string{s.specs()}
	}
	s.sent = append(s.sent, q)
	return q
}

// closedLoop runs one client's operations back to back until d has passed
// (at least one). Each op reports its own latency, so checking an answer
// after the clock stops is not timed; a failed op counts in failed.
func closedLoop(d time.Duration, op func() (time.Duration, bool, error)) (lat []float64, failed int, err error) {
	start := time.Now()
	for len(lat)+failed == 0 || time.Since(start) < d {
		l, ok, err := op()
		if err != nil {
			return lat, failed, err
		}
		if !ok {
			failed++
			continue
		}
		lat = append(lat, ms(l))
	}
	return lat, failed, nil
}

type whatifState struct {
	g  *gen.Output
	d  *daemon
	cl *client
}

func (s *whatifState) stop() {
	s.cl.close()
	s.d.stop()
}

// setupWhatIf generates WAN(4), starts hoyand on it and sends one warm-up
// query, so lazily built state (scratch clones, connection) exists before
// timing.
func setupWhatIf() (*whatifState, error) {
	g := gen.Generate(gen.WAN(4))
	d, err := startDaemon([]serve.TenantConfig{{Name: "ops", APIKey: "bench-ops"}}, g.Net, g.Inputs, g.Flows)
	if err != nil {
		return nil, err
	}
	s := &whatifState{g: g, d: d, cl: d.client("bench-ops")}
	l := linkRefs(g.Net)[0]
	if _, code, err := s.cl.submit(serve.QueryRequest{Kind: "whatif", FailLinks: []serve.LinkRef{l}}, true); err != nil || code != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("warm-up query: HTTP %d, %v", code, err)
	}
	return s, nil
}

// whatifReplay re-runs a traced query's fork through core's public entry on
// the benchmark's own warm engine, one span per layer call. hoyand's run is
// opaque to spans taken outside it; the replay splits it by layer.
type whatifReplay struct {
	eng     *core.Engine
	base    *core.Result
	scratch *config.Network
	bw      map[netmodel.LinkID]float64
	stats   core.ForkStats
	forks   int
	full    int
	rows    int
}

func runWhatIf(cfg runConfig) (*report, error) {
	st, setupS, err := repeatSetup(setups, setupWhatIf, (*whatifState).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	rep := newReport()
	rep.e2e["setup_s"] = setupS
	seq := newWhatifSeq(st.g.Net, cfg.Seed)
	book := newAnswerBook()

	var tr *telemetry.Tracer
	var rp *whatifReplay
	var queueWait, runMS, lat []float64
	rejected := 0
	op := func() (time.Duration, bool, error) {
		q := seq.next()
		root := tr.StartRoot("whatif")
		t0 := time.Now()
		status, code, err := st.cl.submit(q, true)
		l := time.Since(t0)
		root.End()
		rep.attempted++
		if err != nil {
			return 0, false, fmt.Errorf("submit: %w", err)
		}
		if code == http.StatusTooManyRequests {
			rejected++
		}
		if code != http.StatusOK || status.State != serve.StateDone || status.Result == nil {
			return l, false, nil
		}
		if err := book.record(requestKey(q), status.Result); err != nil {
			return 0, false, err
		}
		if tr != nil {
			enq, started, _, _ := phases(status)
			tr.RecordSpan(root.Context(), "serve.queue_wait", enq, started.Sub(enq))
			runSpan := tr.RecordSpan(root.Context(), "serve.run", started, time.Duration(status.RunMS*float64(time.Millisecond)))
			queueWait = append(queueWait, status.QueueWaitMS)
			runMS = append(runMS, status.RunMS)
			if err := rp.replay(tr, runSpan, q, status.Result.RIBDigest != status.Result.BaseDigest); err != nil {
				return 0, false, err
			}
		}
		return l, true, nil
	}

	if !cfg.Trace {
		loop := startLoop()
		lat, rep.failed, err = closedLoop(cfg.Duration, op)
		if err != nil {
			return nil, err
		}
		rep.setLatencies(lat)
		rep.e2e["throughput_per_s"] = 1000 / mean(lat)
		rep.e2e["alloc_mb_per_op"] = loop.allocPerOpMiB(len(lat))
		rep.e2e["peak_rss_mb"] = peakRSSMiB()
		rep.hostSteal = loop.stealShare()
	} else {
		untraced, failedU, err := closedLoop(cfg.Duration/3, op)
		if err != nil {
			return nil, err
		}
		rp = newWhatifReplay(st.g)
		tr = telemetry.NewTracer("hoyanbench")
		var failedT int
		gcm := startGC()
		lat, failedT, err = closedLoop(cfg.Duration-cfg.Duration/3, op)
		if err != nil {
			return nil, err
		}
		rep.layers["gc.loop_cpu_share"] = gcm.share()
		rep.failed = failedU + failedT
		rp.layerMetrics(rep, tr.Spans(), lat, untraced, queueWait, runMS)
		rep.layers["serve.rejected"] = float64(rejected)
		rep.layers["failed_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
		rep.samples["latency_traced"] = len(lat)
		rep.samples["latency_untraced"] = len(untraced)
		if err := finishTrace(rep, cfg, "whatif-wan4", tr); err != nil {
			return nil, err
		}
	}

	ref := newReference(st.g.Net.Clone(), st.g.Inputs, st.g.Flows)
	checked, err := ref.checkServed(book, rand.New(rand.NewSource(cfg.Seed)), map[string]int{"whatif": 6})
	if err != nil {
		return nil, err
	}
	rep.checked = checked + book.repeats
	rep.notes = append(rep.notes, fmt.Sprintf("oracle: %d answers matched the from-scratch reference, %d repeats matched their first answer", checked, book.repeats))
	return rep, nil
}

func newWhatifReplay(g *gen.Output) *whatifReplay {
	net := g.Net.Clone()
	eng := core.NewEngine(net, core.Options{Parallelism: 1})
	base := eng.BaseRun(g.Inputs, g.Flows)
	return &whatifReplay{eng: eng, base: base, scratch: net.Clone(), bw: bandwidths(net)}
}

func (r *whatifReplay) replay(tr *telemetry.Tracer, parent telemetry.SpanContext, q serve.QueryRequest, changed bool) error {
	d, err := applyFailures(r.scratch, q)
	if err != nil {
		return err
	}
	defer revertFailures(r.scratch, d)
	sp := tr.StartChild(parent, "core.fork")
	res, st, err := r.eng.ForkCtxN(context.Background(), r.scratch, d, 1)
	sp.End()
	if err != nil {
		return err
	}
	r.forks++
	if st.Full {
		r.full++
	}
	r.stats.SPFSources += st.SPFSources
	r.stats.SPFReused += st.SPFReused
	r.stats.BGPTablesTotal += st.BGPTablesTotal
	r.stats.BGPTablesDirty += st.BGPTablesDirty
	r.stats.BGPRounds += st.BGPRounds
	r.stats.FlowsTotal += st.FlowsTotal
	r.stats.FlowsReused += st.FlowsReused

	sp = tr.StartChild(parent, "netmodel.global_rib")
	upd := res.Routes.GlobalRIB()
	sp.End()
	r.rows += upd.Len()
	if changed {
		sp = tr.StartChild(parent, "netmodel.diff")
		r.base.Routes.GlobalRIB().Diff(upd)
		sp.End()
	}
	if len(q.Specs) > 0 {
		sp = tr.StartChild(parent, "intent.verify")
		intent.Verify(verifyContext(r.base, res, r.bw), routeIntents(q.Specs))
		sp.End()
	}
	return nil
}

// layerMetrics derives the per-layer metrics of the traced loop. The client
// latency splits into queue wait, the service's run, and the remainder
// (HTTP, JSON, admission) reported as serve.overhead_ms; the replayed layer
// calls split the run, and what they do not cover (the RIB digest, result
// assembly, scratch handling) is trace.unattributed_ms.
func (r *whatifReplay) layerMetrics(rep *report, spans []telemetry.SpanRecord, traced, untraced, queueWait, runMS []float64) {
	ops := len(traced)
	self := selfTimes(rep, spans)
	perOpSelf(rep, self, ops, "core.fork", "netmodel.global_rib", "netmodel.diff", "intent.verify")
	rep.layers["serve.overhead_ms"] = ratio(ms(self["whatif"]), float64(ops))
	rep.layers["trace.unattributed_ms"] = ratio(ms(self["serve.run"]), float64(ops))
	rep.layers["serve.run_ms"] = mean(runMS)
	rep.layers["serve.queue_wait_p50_ms"] = percentile(queueWait, 0.5)
	rep.layers["serve.queue_wait_p90_ms"] = percentile(queueWait, 0.9)
	rep.layers["whatif_p50_ms"] = percentile(traced, 0.5)
	rep.layers["trace.overhead_frac"] = ratio(percentile(traced, 0.5), percentile(untraced, 0.5)) - 1
	rep.layers["netmodel.rib_rows"] = ratio(float64(r.rows), float64(r.forks))
	rep.layers["core.spf_reuse_ratio"] = ratio(float64(r.stats.SPFReused), float64(r.stats.SPFSources))
	rep.layers["core.bgp_dirty_ratio"] = ratio(float64(r.stats.BGPTablesDirty), float64(r.stats.BGPTablesTotal))
	rep.layers["core.bgp_warm_rounds"] = ratio(float64(r.stats.BGPRounds), float64(r.forks))
	rep.layers["core.flow_reuse_ratio"] = ratio(float64(r.stats.FlowsReused), float64(r.stats.FlowsTotal))
	rep.layers["core.fork_full_frac"] = ratio(float64(r.full), float64(r.forks))
}
