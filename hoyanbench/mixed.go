package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/gen"
	"hoyan/internal/serve"
	"hoyan/internal/telemetry"
)

// tenants-mixed-wan2: two tenants send queries to hoyand on gen.WAN(2) at
// seeded Poisson arrival times, whether or not earlier answers are back.
const (
	// mixedRate is the fixed arrival rate in queries per second: it keeps
	// the two hoyand workers busy about 30% of the time. At 24/s (about
	// two-thirds busy) runs of one seed differed by 30-40% in p50 and p90.
	mixedRate = 12.0
	// mixedLimit is the latency limit a query must finish within, counted
	// from when it was due, to count towards goodput.
	mixedLimit = 250 * time.Millisecond
	// mixedLagBound is the generator lag (p90 of send time minus due time)
	// beyond which a run is invalid rather than measured: past about 60% of
	// the mean gap between arrivals (83 ms), late sends would reshape the
	// schedule rather than merely delay it.
	mixedLagBound = 50 * time.Millisecond
)

var mixedTenants = []serve.TenantConfig{
	{Name: "noc", APIKey: "bench-noc"},
	{Name: "change", APIKey: "bench-change"},
}

// arrival is one scheduled query.
type arrival struct {
	due  time.Duration // offset from the schedule's start
	key  string        // tenant API key
	kind string
	q    serve.QueryRequest
}

// mixedBlock is the fixed mix of every 20 consecutive arrivals: 70%
// what-ifs from the noc tenant, then for the change tenant 15% verify, 10%
// plan and 5% 8-scenario kfail queries.
var mixedBlock = []string{
	"whatif", "whatif", "whatif", "whatif", "whatif", "whatif", "whatif",
	"whatif", "whatif", "whatif", "whatif", "whatif", "whatif", "whatif",
	"verify", "verify", "verify", "plan", "plan", "kfail",
}

// mixedSchedule draws about rate × d arrivals as blocks of len(mixedBlock).
// Block i covers its equal share of [0, d); its arrivals are uniform over
// that span (a Poisson process conditioned on the block's count) and carry
// the block's mix in seeded order. Conditioning on per-block counts keeps
// multi-second bursts and clusters of heavy queries, which would otherwise
// set a run's tail latency, from differing between seeds. What-if targets
// (every fifth failing a device, every fifth carrying a spec), specs and
// plans are dealt from seeded permutations, so every run covers its
// population evenly.
func mixedSchedule(net *config.Network, plans []*change.Plan, rnd *rand.Rand, d time.Duration) []arrival {
	blocks := max(1, int(math.Round(mixedRate*d.Seconds()/float64(len(mixedBlock)))))
	span := d / time.Duration(blocks)
	links := dealer(rnd, linkRefs(net))
	devices := dealer(rnd, deviceNames(net))
	specs := dealer(rnd, corpus(net))
	plan := dealer(rnd, plans)

	var out []arrival
	whatifs := 0
	for b := 0; b < blocks; b++ {
		for _, kind := range shuffled(rnd, mixedBlock) {
			a := arrival{
				due:  time.Duration(b)*span + time.Duration(rnd.Float64()*float64(span)),
				key:  "bench-change",
				kind: kind,
			}
			a.q.Kind = kind
			switch kind {
			case "whatif":
				a.key = "bench-noc"
				if whatifs%5 == 4 {
					a.q.FailDevices = []string{devices()}
				} else {
					a.q.FailLinks = []serve.LinkRef{links()}
				}
				if whatifs%5 == 2 {
					a.q.Specs = []string{specs()}
				}
				whatifs++
			case "verify":
				a.q.Specs = []string{specs(), specs()}
			case "plan":
				a.q.Commands = plan().Commands
				a.q.Specs = []string{specs()}
			case "kfail":
				a.q.K, a.q.MaxScenarios = 1, 8
				a.q.Specs = []string{specs()}
			}
			out = append(out, a)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// outcome is what the generator observed for one arrival.
type outcome struct {
	due, sent time.Time
	code      int
	status    serve.Status
}

func (o outcome) done() bool {
	return o.code == http.StatusAccepted && o.status.State == serve.StateDone && o.status.Result != nil
}

// latency is from due time to the service's recorded finish.
func (o outcome) latency() float64 { return ms(o.status.FinishedAt.Sub(o.due)) }

type mixedState struct {
	g     *gen.Output
	plans []*change.Plan
	d     *daemon
}

func (s *mixedState) stop() { s.d.stop() }

func setupMixed(seed int64) func() (*mixedState, error) {
	return func() (*mixedState, error) {
		g := gen.Generate(gen.WAN(2))
		plans, err := planPool(g.Net, rand.New(rand.NewSource(seed)), 6)
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(mixedTenants, g.Net, g.Inputs, g.Flows)
		if err != nil {
			return nil, err
		}
		s := &mixedState{g: g, plans: plans, d: d}
		// Warm-up: one query of each kind.
		cl := d.client("bench-change")
		defer cl.close()
		for _, q := range []serve.QueryRequest{
			{Kind: "whatif", FailLinks: linkRefs(g.Net)[:1]},
			{Kind: "verify", Specs: []string{"PRE = POST"}},
			{Kind: "plan", Commands: plans[0].Commands},
			{Kind: "kfail", K: 1, MaxScenarios: 2},
		} {
			if st, code, err := cl.submit(q, true); err != nil || code != http.StatusOK || st.State != serve.StateDone {
				s.stop()
				return nil, fmt.Errorf("warm-up %s query: HTTP %d, state %q, %v", q.Kind, code, st.State, err)
			}
		}
		return s, nil
	}
}

// openLoop plays the schedule on two keep-alive connections. Two submitters
// take the arrivals in order and send each when it is due (the asynchronous
// 202 path), so one slow admission does not hold back the next arrival.
// Once all are sent, each admitted query's terminal status is read back; its
// finish time is the service's own record, so reading it late changes
// nothing.
func (s *mixedState) openLoop(sched []arrival) []outcome {
	conns := []*http.Client{s.d.conn(), s.d.conn()}
	out := make([]outcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, hc := range conns {
		defer hc.CloseIdleConnections()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(sched); i = int(next.Add(1) - 1) {
				due := start.Add(sched[i].due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				st, code, err := s.d.clientOn(hc, sched[i].key).submit(sched[i].q, false)
				if err != nil {
					code = 0
				}
				out[i] = outcome{due: due, sent: sent, code: code, status: st}
			}
		}()
	}
	wg.Wait()
	for i := range out {
		if out[i].code != http.StatusAccepted {
			continue
		}
		st, err := s.d.clientOn(conns[0], sched[i].key).await(out[i].status.ID)
		if err != nil {
			st.State, st.Error = serve.StateFailed, err.Error()
		}
		out[i].status = st
	}
	return out
}

func runMixed(cfg runConfig) (*report, error) {
	st, setupS, err := repeatSetup(setups, setupMixed(cfg.Seed), (*mixedState).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	rep := newReport()
	rep.e2e["setup_s"] = setupS
	rnd := rand.New(rand.NewSource(cfg.Seed))
	book := newAnswerBook()

	// Both schedules are drawn before anything is timed.
	untracedDur := cfg.Duration
	if cfg.Trace {
		untracedDur = cfg.Duration / 3
	}
	sched := mixedSchedule(st.g.Net, st.plans, rnd, untracedDur)
	var tracedSched []arrival
	if cfg.Trace {
		tracedSched = mixedSchedule(st.g.Net, st.plans, rnd, cfg.Duration-untracedDur)
	}

	// play runs one schedule, files its answers and rejects the run if the
	// generator fell behind.
	play := func(sched []arrival, d time.Duration) ([]outcome, error) {
		outs := st.openLoop(sched)
		if err := recordMixed(rep, book, sched, outs); err != nil {
			return nil, err
		}
		busy := 0.0
		for _, o := range outs {
			busy += o.status.RunMS
		}
		rep.notes = append(rep.notes, fmt.Sprintf("worker busy fraction %.3f", busy/(2*ms(d))))
		if p90 := percentile(mixedLags(outs), 0.9); p90 > ms(mixedLagBound) {
			return nil, fmt.Errorf("invalid run: generator lag p90 %.1f ms exceeds the %v bound", p90, mixedLagBound)
		}
		return outs, nil
	}

	loop := startLoop()
	outs, err := play(sched, untracedDur)
	if err != nil {
		return nil, err
	}
	if !cfg.Trace {
		rep.e2e["alloc_mb_per_op"] = loop.allocPerOpMiB(len(outs))
		rep.e2e["peak_rss_mb"] = peakRSSMiB()
		rep.hostSteal = loop.stealShare()
		rep.setLatencies(mixedLatencies(outs))
		// Goodput counts answers within the limit per second from the
		// schedule's start to the last answer, drain included.
		start := outs[0].due.Add(-sched[0].due)
		good, last := 0, start
		for _, o := range outs {
			if o.done() && o.latency() <= ms(mixedLimit) {
				good++
			}
			if o.status.FinishedAt != nil && o.status.FinishedAt.After(last) {
				last = *o.status.FinishedAt
			}
		}
		rep.e2e["throughput_per_s"] = float64(good) / last.Sub(start).Seconds()
	} else {
		gcm := startGC()
		touts, err := play(tracedSched, cfg.Duration-untracedDur)
		if err != nil {
			return nil, err
		}
		rep.layers["gc.loop_cpu_share"] = gcm.share()
		tr := telemetry.NewTracer("hoyanbench")
		traceMixed(tr, tracedSched, touts)
		mixedLayerMetrics(rep, tr.Spans(), tracedSched, touts, mixedLatencies(outs))
		if err := finishTrace(rep, cfg, "tenants-mixed-wan2", tr); err != nil {
			return nil, err
		}
	}

	ref := newReference(st.g.Net.Clone(), st.g.Inputs, st.g.Flows)
	checked, err := ref.checkServed(book, rnd, map[string]int{"whatif": 4, "verify": 2, "plan": 3, "kfail": 1})
	if err != nil {
		return nil, err
	}
	rep.checked = checked + book.repeats
	rep.notes = append(rep.notes, fmt.Sprintf("oracle: %d answers matched the from-scratch reference, %d repeats matched their first answer", checked, book.repeats),
		fmt.Sprintf("rate %.0f/s, goodput limit %v, lag bound %v", mixedRate, mixedLimit, mixedLagBound))
	return rep, nil
}

// recordMixed counts attempts and failures and files every answer; a refused
// (429), failed or deadline-exceeded query is a failure.
func recordMixed(rep *report, book *answerBook, sched []arrival, outs []outcome) error {
	for i, o := range outs {
		rep.attempted++
		if !o.done() {
			rep.failed++
			continue
		}
		if err := book.record(requestKey(sched[i].q), o.status.Result); err != nil {
			return err
		}
	}
	return nil
}

func mixedLatencies(outs []outcome) []float64 {
	var lat []float64
	for _, o := range outs {
		if o.done() {
			lat = append(lat, o.latency())
		}
	}
	return lat
}

func mixedLags(outs []outcome) []float64 {
	lag := make([]float64, len(outs))
	for i, o := range outs {
		lag[i] = ms(o.sent.Sub(o.due))
	}
	return lag
}

// traceMixed records each finished query's path as contiguous spans: the
// generator's lag (due → sent), admission (sent → enqueued), queue wait and
// run, under one root per query that spans due → finished.
func traceMixed(tr *telemetry.Tracer, sched []arrival, outs []outcome) {
	for i, o := range outs {
		enq, started, finished, ok := phases(o.status)
		if !o.done() || !ok {
			continue
		}
		root := tr.RecordSpan(telemetry.SpanContext{}, "query."+sched[i].kind, o.due, finished.Sub(o.due))
		tr.RecordSpan(root, "loadgen.lag", o.due, o.sent.Sub(o.due))
		tr.RecordSpan(root, "serve.admit", o.sent, enq.Sub(o.sent))
		tr.RecordSpan(root, "serve.queue_wait", enq, started.Sub(enq))
		tr.RecordSpan(root, "serve.run", started, finished.Sub(started))
	}
}

func mixedLayerMetrics(rep *report, spans []telemetry.SpanRecord, sched []arrival, outs []outcome, untracedLat []float64) {
	byKind := map[string][]float64{}
	var queue, run, overhead, lat []float64
	var kfailMS, kfailScen float64
	rejected := 0
	for i, o := range outs {
		if o.code == http.StatusTooManyRequests {
			rejected++
		}
		if !o.done() {
			continue
		}
		l := o.latency()
		lat = append(lat, l)
		byKind[sched[i].kind] = append(byKind[sched[i].kind], l)
		queue = append(queue, o.status.QueueWaitMS)
		run = append(run, o.status.RunMS)
		overhead = append(overhead, l-o.status.QueueWaitMS-o.status.RunMS)
		if k := o.status.Result.Kfail; k != nil {
			kfailMS += o.status.RunMS
			kfailScen += float64(k.Scenarios)
		}
	}
	self := selfTimes(rep, spans)
	unattributed := time.Duration(0)
	for _, k := range []string{"whatif", "verify", "plan", "kfail"} {
		unattributed += self["query."+k]
		rep.samples[k] = len(byKind[k])
	}
	rep.layers["trace.unattributed_ms"] = ratio(ms(unattributed), float64(len(lat)))
	rep.layers["serve.queue_wait_p50_ms"] = percentile(queue, 0.5)
	rep.layers["serve.queue_wait_p90_ms"] = percentile(queue, 0.9)
	rep.layers["serve.run_ms"] = mean(run)
	rep.layers["serve.overhead_ms"] = mean(overhead)
	rep.layers["serve.rejected"] = float64(rejected)
	rep.layers["whatif_p50_ms"] = percentile(byKind["whatif"], 0.5)
	rep.layers["verify_p50_ms"] = percentile(byKind["verify"], 0.5)
	rep.layers["plan_p50_ms"] = percentile(byKind["plan"], 0.5)
	rep.layers["kfail.scenario_ms"] = ratio(kfailMS, kfailScen)
	rep.layers["failed_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	rep.layers["loadgen.lag_p90_ms"] = percentile(mixedLags(outs), 0.9)
	rep.layers["trace.overhead_frac"] = ratio(percentile(lat, 0.5), percentile(untracedLat, 0.5)) - 1
	rep.samples["latency_traced"] = len(lat)
	rep.samples["latency_untraced"] = len(untracedLat)
}
