package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/intent"
	"hoyan/internal/kfail"
	"hoyan/internal/netmodel"
	"hoyan/internal/serve"
)

// wrongAnswer aborts a run: the program answered something its reference
// disagrees with.
type wrongAnswer struct{ msg string }

func (w *wrongAnswer) Error() string { return w.msg }

func wrongf(format string, args ...any) *wrongAnswer {
	return &wrongAnswer{msg: fmt.Sprintf(format, args...)}
}

// ribDigest is hoyand's order-independent RIB digest (per-row sha256 of
// Route.AppendSignature, summed lane-wise), recomputed here so references
// built outside the service can be compared with its rib_digest answers.
func ribDigest(g *netmodel.GlobalRIB) string {
	var acc [4]uint64
	var buf []byte
	for _, r := range g.Rows() {
		buf = r.AppendSignature(buf[:0])
		sum := sha256.Sum256(buf)
		for lane := 0; lane < 4; lane++ {
			acc[lane] += binary.BigEndian.Uint64(sum[lane*8:])
		}
	}
	var out [32]byte
	for lane := 0; lane < 4; lane++ {
		binary.BigEndian.PutUint64(out[lane*8:], acc[lane])
	}
	return hex.EncodeToString(out[:])
}

// answerBook holds the first answer to every distinct request and rejects a
// later answer to the same request that differs from it.
type answerBook struct {
	first   map[string][]byte
	repeats int
}

func newAnswerBook() *answerBook { return &answerBook{first: make(map[string][]byte)} }

func (b *answerBook) record(key string, answer any) error {
	enc, err := json.Marshal(answer)
	if err != nil {
		return err
	}
	prev, seen := b.first[key]
	if !seen {
		b.first[key] = enc
		return nil
	}
	b.repeats++
	if !bytes.Equal(prev, enc) {
		return wrongf("request %s answered differently on repeat:\nfirst: %s\nlater: %s", key, prev, enc)
	}
	return nil
}

// lookup returns the first answer recorded for key, decoded into out.
func (b *answerBook) lookup(key string, out any) bool {
	enc, ok := b.first[key]
	if !ok {
		return false
	}
	return json.Unmarshal(enc, out) == nil
}

// requestKey is the canonical identity of a query request.
func requestKey(req serve.QueryRequest) string {
	enc, _ := json.Marshal(req)
	return string(enc)
}

// sameAnswer compares two query results field for field through their JSON
// form (the shape the service returns).
func sameAnswer(got, want *serve.QueryResult) error {
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		return wrongf("answer differs from reference:\nservice:   %s\nreference: %s", g, w)
	}
	return nil
}

// bandwidths maps every link with a configured bandwidth to it, as the
// service does for load intents.
func bandwidths(net *config.Network) map[netmodel.LinkID]float64 {
	bw := make(map[netmodel.LinkID]float64)
	for _, l := range net.Topo.Links() {
		if l.Bandwidth > 0 {
			bw[l.ID()] = l.Bandwidth
		}
	}
	return bw
}

// reference is a from-scratch base state the oracle answers queries
// against. Its engine runs with core.Options.DisableIncremental, so every
// scenario it forks is simulated from nothing, never warm-started.
type reference struct {
	net        *config.Network
	inputs     []netmodel.Route
	flows      []netmodel.Flow
	eng        *core.Engine
	base       *core.Result
	baseDigest string
	bw         map[netmodel.LinkID]float64
}

func newReference(net *config.Network, inputs []netmodel.Route, flows []netmodel.Flow) *reference {
	eng := core.NewEngine(net, core.Options{Parallelism: 1, DisableIncremental: true})
	base := eng.BaseRun(inputs, flows)
	return &reference{
		net: net, inputs: inputs, flows: flows, eng: eng,
		base: base, baseDigest: ribDigest(base.Routes.GlobalRIB()), bw: bandwidths(net),
	}
}

// answer builds the result the service must return for an updated state:
// its digest, its route delta against base, and its spec verdicts.
func (r *reference) answer(updated *core.Result, specs []string) *serve.QueryResult {
	upd := updated.Routes.GlobalRIB()
	baseRIB := r.base.Routes.GlobalRIB()
	out := &serve.QueryResult{RIBDigest: ribDigest(upd), BaseDigest: r.baseDigest, SpecsOK: true}
	if out.RIBDigest != out.BaseDigest {
		onlyBase, onlyUpd := baseRIB.Diff(upd)
		out.RouteDelta = len(onlyBase) + len(onlyUpd)
	}
	if len(specs) == 0 {
		return out
	}
	reports, ok := intent.Verify(verifyContext(r.base, updated, r.bw), routeIntents(specs))
	out.SpecsOK = ok
	for _, rep := range reports {
		out.Specs = append(out.Specs, serve.SpecReport{Spec: rep.Intent, Satisfied: rep.Satisfied, Violations: rep.Violations})
	}
	return out
}

// whatIf answers a failure scenario from scratch.
func (r *reference) whatIf(req serve.QueryRequest) (*serve.QueryResult, error) {
	scen := r.net.Clone()
	d, err := applyFailures(scen, req)
	if err != nil {
		return nil, err
	}
	res, _ := r.eng.Fork(scen, d)
	return r.answer(res, req.Specs), nil
}

// checkServed compares a seeded sample of the service's answers, up to
// sample[kind] distinct requests of each kind, with the reference's:
// what-ifs against a from-scratch fork, verify queries against the base,
// plans against a cold engine run of the changed model, kfail sweeps
// against a from-scratch sweep. It returns how many it compared.
func (r *reference) checkServed(book *answerBook, rnd *rand.Rand, sample map[string]int) (int, error) {
	keys := make([]string, 0, len(book.first))
	for k := range book.first {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	checked := 0
	for _, k := range shuffled(rnd, keys) {
		var req serve.QueryRequest
		var got serve.QueryResult
		if json.Unmarshal([]byte(k), &req) != nil || sample[req.Kind] == 0 || !book.lookup(k, &got) {
			continue
		}
		sample[req.Kind]--
		checked++
		var want *serve.QueryResult
		switch req.Kind {
		case "whatif":
			w, err := r.whatIf(req)
			if err != nil {
				return 0, err
			}
			want = w
		case "verify":
			want = r.answer(r.base, req.Specs)
		case "plan":
			plan := &change.Plan{Type: change.RouteAttrModify, Commands: req.Commands}
			updated, err := plan.Apply(r.net)
			if err != nil {
				return 0, err
			}
			res := core.NewEngine(updated, core.Options{Parallelism: 1}).Run(plan.ApplyInputs(r.inputs), r.flows)
			want = r.answer(res, req.Specs)
		case "kfail":
			res, err := kfail.Check(r.net.Clone(), r.inputs, r.flows, routeIntents(req.Specs), kfail.Options{
				K: req.K, MaxScenarios: req.MaxScenarios, Parallelism: 1,
				Sim: core.Options{Parallelism: 1, DisableIncremental: true},
			})
			if err != nil {
				return 0, err
			}
			if got.BaseDigest != r.baseDigest || got.SpecsOK != res.OK() || got.Kfail == nil ||
				got.Kfail.Scenarios != res.Scenarios || got.Kfail.Violations != len(res.Violations) {
				return 0, wrongf("kfail %s: service %+v (ok=%v), reference %d scenarios, %d violations (ok=%v)",
					k, got.Kfail, got.SpecsOK, res.Scenarios, len(res.Violations), res.OK())
			}
			continue
		}
		if err := sameAnswer(&got, want); err != nil {
			return 0, fmt.Errorf("%s query %s: %w", req.Kind, k, err)
		}
	}
	return checked, nil
}

// applyFailures takes a what-if request's links and devices down on net and
// returns the matching engine delta.
func applyFailures(net *config.Network, req serve.QueryRequest) (core.Delta, error) {
	var d core.Delta
	for _, ref := range req.FailLinks {
		l := net.Topo.FindLink(ref.A, ref.B)
		if l == nil {
			return d, fmt.Errorf("no link %s--%s", ref.A, ref.B)
		}
		if l.Up {
			net.Topo.SetLinkUp(l.ID(), false)
		}
		d.LinksDown = append(d.LinksDown, l.ID())
	}
	for _, dev := range req.FailDevices {
		if n := net.Topo.Node(dev); n != nil && n.Up {
			net.Topo.SetNodeUp(dev, false)
		}
		d.NodesDown = append(d.NodesDown, dev)
	}
	return d, nil
}

// revertFailures brings back up what applyFailures took down.
func revertFailures(net *config.Network, d core.Delta) {
	for _, id := range d.LinksDown {
		net.Topo.SetLinkUp(id, true)
	}
	for _, dev := range d.NodesDown {
		net.Topo.SetNodeUp(dev, true)
	}
}

// verifyContext is the (base, updated) pair intents are checked against, as
// the service assembles it.
func verifyContext(base, updated *core.Result, bw map[netmodel.LinkID]float64) *intent.Context {
	snap := func(res *core.Result) intent.Snapshot {
		s := intent.Snapshot{RIB: res.Routes.GlobalRIB(), Bandwidth: bw}
		if res.Traffic != nil {
			s.Paths, s.Load = res.Traffic.Traffic.Paths, res.Traffic.Traffic.Load
		}
		return s
	}
	return &intent.Context{Base: snap(base), Updated: snap(updated)}
}

func routeIntents(specs []string) []intent.Intent {
	out := make([]intent.Intent, 0, len(specs))
	for _, s := range specs {
		out = append(out, intent.RouteIntent{Spec: s})
	}
	return out
}
