package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"hoyan/internal/bgp"
	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/ec"
	"hoyan/internal/gen"
	"hoyan/internal/isis"
	"hoyan/internal/netmodel"
	"hoyan/internal/pipeline"
	"hoyan/internal/rcl"
	"hoyan/internal/telemetry"
	"hoyan/internal/traffic"
	"hoyan/internal/vsb"
)

// cold-verify-wan4: one client runs what one `hoyan -configs -plan -rcl`
// invocation does, back to back and with no warm state: parse every config
// text into a model, simulate it, apply a change plan, simulate the changed
// model from scratch, and check a slice of the RCL corpus PRE vs POST.

// coldSpecsPerOp is the size of each verification's corpus slice.
const coldSpecsPerOp = 5

type coldState struct {
	g     *gen.Output
	texts map[string]string
	plans []*change.Plan
	// slices partition the corpus into slices of coldSpecsPerOp specs.
	// Slice k takes every len/coldSpecsPerOp-th spec from k on: the corpus
	// groups specs by template, so striding gives every slice one spec of
	// each cost class, and every len/coldSpecsPerOp verifications check
	// each spec once whatever the seed.
	slices [][]string
}

// coldAnswer is one verification's outcome: the base and changed RIBs'
// digests and each spec's verdict.
type coldAnswer struct {
	Base, Post string
	Verdicts   []bool
}

func setupCold(seed int64) func() (*coldState, error) {
	return func() (*coldState, error) {
		g := gen.Generate(gen.WAN(4))
		plans, err := planPool(g.Net, rand.New(rand.NewSource(seed)), 6)
		if err != nil {
			return nil, err
		}
		s := &coldState{g: g, texts: g.ConfigTexts(), plans: plans}
		specs := corpus(g.Net)
		stride := len(specs) / coldSpecsPerOp
		for k := 0; k < stride; k++ {
			var slice []string
			for i := k; i < len(specs); i += stride {
				slice = append(slice, specs[i])
			}
			s.slices = append(s.slices, slice)
		}
		// Warm-up: one verification, so the heap reaches its working size
		// before timing.
		if _, _, _, err := s.verify(nil, nil, plans[0], s.slices[0]); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// coldLayers accumulates what the traced decomposition counts, summed over
// its sims route + traffic simulations and specs spec checks.
type coldLayers struct {
	sims, specs                       int
	routeReps, rounds, messages, rows int
	flowReps                          int
	bgpAlloc                          allocWindow
}

// verify runs one verification and returns the base and changed global
// RIBs with each spec's verdict. Untraced (tr == nil) it simulates through
// core.Engine.Run; traced it makes the same calls into each layer one by one
// (SPF, route ECs, BGP fixpoint, EC expansion, global RIB, flow ECs,
// forwarding) so each gets its own span.
func (s *coldState) verify(tr *telemetry.Tracer, cl *coldLayers, plan *change.Plan, specs []string) (base, post *netmodel.GlobalRIB, verdicts []bool, err error) {
	root := tr.StartRoot("verify")
	defer root.End()
	parent := root.Context()
	sp := tr.StartChild(parent, "config.parse")
	net, err := config.BuildNetworkOpts(s.texts, nil, config.BuildOptions{Parallelism: 1})
	if err != nil {
		return nil, nil, nil, err
	}
	// The CLI pairs the parsed configs with the monitored topology.
	net.Topo = s.g.Net.Topo.Clone()
	sp.End()

	baseRIB := s.simulate(tr, cl, parent, net, s.g.Inputs)

	sp = tr.StartChild(parent, "change.apply")
	updated, err := plan.Apply(net)
	if err != nil {
		return nil, nil, nil, err
	}
	inputs := plan.ApplyInputs(s.g.Inputs)
	sp.End()

	postRIB := s.simulate(tr, cl, parent, updated, inputs)

	for _, spec := range specs {
		sp = tr.StartChild(parent, "rcl.parse")
		g, err := rcl.Parse(spec)
		sp.End()
		if err != nil {
			return nil, nil, nil, err
		}
		sp = tr.StartChild(parent, "rcl.check")
		res, err := rcl.Check(g, baseRIB, postRIB)
		sp.End()
		if err != nil {
			return nil, nil, nil, err
		}
		verdicts = append(verdicts, res.Holds)
	}
	if cl != nil {
		cl.specs += len(specs)
	}
	return baseRIB, postRIB, verdicts, nil
}

// simulate runs route and traffic simulation of net and returns its global
// RIB.
func (s *coldState) simulate(tr *telemetry.Tracer, cl *coldLayers, parent telemetry.SpanContext, net *config.Network, inputs []netmodel.Route) *netmodel.GlobalRIB {
	if tr == nil {
		return core.NewEngine(net, core.Options{Parallelism: 1}).Run(inputs, s.g.Flows).Routes.GlobalRIB()
	}
	profiles := vsb.Defaults()
	sp := tr.StartChild(parent, "isis.spf")
	igp := isis.Compute(net.Topo, isis.Options{Parallelism: 1})
	sp.End()

	sp = tr.StartChild(parent, "ec.route")
	ecs := ec.ComputeRouteECs(net, profiles, inputs, 1)
	sp.End()
	reps := ecs.Representatives()

	sp = tr.StartChild(parent, "bgp.fixpoint")
	cl.bgpAlloc.begin()
	res := bgp.Simulate(net, igp, reps, bgp.Options{Profiles: profiles, Parallelism: 1})
	cl.bgpAlloc.end()
	sp.End()

	sp = tr.StartChild(parent, "ec.expand")
	for _, t := range res.Tables() {
		ecs.ExpandRIB(res.RIB(t.Device, t.VRF))
	}
	sp.End()

	sp = tr.StartChild(parent, "netmodel.global_rib")
	rib := res.GlobalRIB()
	sp.End()

	sp = tr.StartChild(parent, "ec.flow")
	fecs := ec.ComputeFlowECs(net, ec.RIBPrefixes(rib.Rows()), s.g.Flows, 1)
	sp.End()
	flows := fecs.Representatives()

	sp = tr.StartChild(parent, "traffic.forward")
	traffic.NewForwarder(net, igp, res, traffic.Options{Profiles: profiles, Parallelism: 1}).Simulate(flows)
	sp.End()

	cl.sims++
	cl.routeReps += len(reps)
	cl.rounds += res.Rounds
	cl.messages += res.Messages
	cl.rows += rib.Len()
	cl.flowReps += len(flows)
	return rib
}

// coldSeq deals each verification's plan from the seeded pool and takes the
// corpus slices in turn from a seeded first one.
type coldSeq struct {
	plan  func() *change.Plan
	slice int
}

func (s *coldState) run(seq *coldSeq, tr *telemetry.Tracer, cl *coldLayers, book *answerBook, asked map[string]coldKey) (time.Duration, bool, error) {
	plan := seq.plan()
	k := seq.slice % len(s.slices)
	seq.slice++
	t0 := time.Now()
	base, post, verdicts, err := s.verify(tr, cl, plan, s.slices[k])
	l := time.Since(t0)
	if err != nil {
		return 0, false, err
	}
	ans := &coldAnswer{Base: ribDigest(base), Post: ribDigest(post), Verdicts: verdicts}
	key := fmt.Sprintf("%s/slice-%d", plan.ID, k)
	asked[key] = coldKey{plan: plan, slice: k}
	if err := book.record(key, ans); err != nil {
		return 0, false, err
	}
	// Every verification shares one base model.
	if err := book.record("base", ans.Base); err != nil {
		return 0, false, err
	}
	return l, true, nil
}

type coldKey struct {
	plan  *change.Plan
	slice int
}

func runColdVerify(cfg runConfig) (*report, error) {
	st, setupS, err := repeatSetup(setups, setupCold(cfg.Seed), func(*coldState) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.e2e["setup_s"] = setupS
	rnd := rand.New(rand.NewSource(cfg.Seed))
	seq := &coldSeq{plan: dealer(rnd, st.plans), slice: rnd.Intn(len(st.slices))}
	book := newAnswerBook()
	asked := map[string]coldKey{}
	var tr *telemetry.Tracer
	var cl *coldLayers
	op := func() (time.Duration, bool, error) {
		rep.attempted++
		return st.run(seq, tr, cl, book, asked)
	}

	if !cfg.Trace {
		loop := startLoop()
		lat, failed, err := closedLoop(cfg.Duration, op)
		if err != nil {
			return nil, err
		}
		rep.failed = failed
		rep.setLatencies(lat)
		rep.e2e["throughput_per_s"] = 1000 / mean(lat)
		rep.e2e["alloc_mb_per_op"] = loop.allocPerOpMiB(len(lat))
		rep.e2e["peak_rss_mb"] = peakRSSMiB()
		rep.hostSteal = loop.stealShare()
	} else {
		untraced, _, err := closedLoop(cfg.Duration/3, op)
		if err != nil {
			return nil, err
		}
		tr, cl = telemetry.NewTracer("hoyanbench"), &coldLayers{}
		gcm := startGC()
		lat, _, err := closedLoop(cfg.Duration-cfg.Duration/3, op)
		if err != nil {
			return nil, err
		}
		rep.layers["gc.loop_cpu_share"] = gcm.share()
		ops := len(lat)
		self := selfTimes(rep, tr.Spans())
		perOpSelf(rep, self, ops, "config.parse", "change.apply", "isis.spf", "ec.route", "ec.expand",
			"bgp.fixpoint", "netmodel.global_rib", "ec.flow", "traffic.forward", "rcl.parse")
		rep.layers["rcl.check_ms_per_spec"] = ratio(ms(self["rcl.check"]), float64(cl.specs))
		rep.layers["trace.unattributed_ms"] = ratio(ms(self["verify"]), float64(ops))
		sims := float64(cl.sims)
		rep.layers["ec.route_reps"] = ratio(float64(cl.routeReps), sims)
		rep.layers["ec.flow_reps"] = ratio(float64(cl.flowReps), sims)
		rep.layers["traffic.flows"] = rep.layers["ec.flow_reps"]
		rep.layers["bgp.rounds"] = ratio(float64(cl.rounds), sims)
		rep.layers["bgp.messages"] = ratio(float64(cl.messages), sims)
		rep.layers["bgp.alloc_mb"] = ratio(float64(cl.bgpAlloc.alloc)/(1<<20), float64(ops))
		rep.layers["netmodel.rib_rows"] = ratio(float64(cl.rows), sims)
		rep.layers["trace.overhead_frac"] = ratio(percentile(lat, 0.5), percentile(untraced, 0.5)) - 1
		rep.samples["latency_traced"] = ops
		rep.samples["latency_untraced"] = len(untraced)
		if err := finishTrace(rep, cfg, "cold-verify-wan4", tr); err != nil {
			return nil, err
		}
	}

	// Oracle: a seeded sample of (plan, slice) verifications re-run through
	// pipeline.System.Verify on the generated model — a different entry point
	// that also checks the parsed model against the one the texts came from.
	sys := pipeline.New(st.g.Net, st.g.Inputs, st.g.Flows, core.Options{Parallelism: 1})
	keys := make([]string, 0, len(asked))
	for k := range asked {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	checked := 0
	for _, k := range shuffled(rnd, keys)[:min(3, len(keys))] {
		ck := asked[k]
		out, err := sys.Verify(ck.plan, routeIntents(st.slices[ck.slice]))
		if err != nil {
			return nil, err
		}
		want := &coldAnswer{Base: ribDigest(out.BaseSnap.RIB), Post: ribDigest(out.UpdateSnap.RIB)}
		for _, r := range out.Reports {
			want.Verdicts = append(want.Verdicts, r.Satisfied)
		}
		var got coldAnswer
		book.lookup(k, &got)
		if fmt.Sprint(got) != fmt.Sprint(*want) {
			return nil, wrongf("verification %s: got %+v, reference %+v", k, got, *want)
		}
		checked++
	}
	rep.checked = checked + book.repeats
	rep.notes = append(rep.notes, fmt.Sprintf("oracle: %d verifications matched pipeline.System.Verify, %d repeats matched their first answer", checked, book.repeats))
	return rep, nil
}
