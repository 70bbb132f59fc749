package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/dsim"
	"hoyan/internal/gen"
	"hoyan/internal/mq"
	"hoyan/internal/netmodel"
	"hoyan/internal/objstore"
	"hoyan/internal/taskdb"
	"hoyan/internal/telemetry"
)

// dsim-wan4: one client runs distributed route + traffic simulations of
// changed gen.WAN(4) models, one at a time, on an in-process dsim cluster of
// two workers over in-memory substrates — the path `hoyan -workers 2`
// verification takes.

const dsimSubtasks = 16 // per stage, as pipeline.System uses

// timedStore wraps the cluster's object store, counting operations, bytes
// and time spent in Put and Get across the master and every worker.
type timedStore struct {
	inner              objstore.Store
	ops, bytes         atomic.Int64
	putNanos, getNanos atomic.Int64
}

func (s *timedStore) Put(key string, data []byte) error {
	t0 := time.Now()
	err := s.inner.Put(key, data)
	s.putNanos.Add(int64(time.Since(t0)))
	s.ops.Add(1)
	s.bytes.Add(int64(len(data)))
	return err
}

func (s *timedStore) Get(key string) ([]byte, error) {
	t0 := time.Now()
	data, err := s.inner.Get(key)
	s.getNanos.Add(int64(time.Since(t0)))
	s.ops.Add(1)
	s.bytes.Add(int64(len(data)))
	return data, err
}

func (s *timedStore) List(prefix string) ([]string, error) {
	s.ops.Add(1)
	return s.inner.List(prefix)
}

func (s *timedStore) Delete(key string) error {
	s.ops.Add(1)
	return s.inner.Delete(key)
}

// countedTasks wraps the subtask database, counting operations.
type countedTasks struct {
	inner taskdb.DB
	ops   atomic.Int64
}

func (t *countedTasks) Upsert(rec taskdb.Record) error {
	t.ops.Add(1)
	return t.inner.Upsert(rec)
}

func (t *countedTasks) FencedUpsert(rec taskdb.Record) (bool, error) {
	t.ops.Add(1)
	return t.inner.FencedUpsert(rec)
}

func (t *countedTasks) Heartbeat(taskID, kind string, subID, attempt int, at time.Time) (bool, error) {
	t.ops.Add(1)
	return t.inner.Heartbeat(taskID, kind, subID, attempt, at)
}

func (t *countedTasks) Get(taskID, kind string, subID int) (taskdb.Record, bool, error) {
	t.ops.Add(1)
	return t.inner.Get(taskID, kind, subID)
}

func (t *countedTasks) List(taskID string) ([]taskdb.Record, error) {
	t.ops.Add(1)
	return t.inner.List(taskID)
}

// dsimCase is one changed model the distributed simulations run on.
type dsimCase struct {
	plan   *change.Plan
	net    *config.Network
	inputs []netmodel.Route
}

type dsimState struct {
	g       *gen.Output
	cases   []*dsimCase
	store   *timedStore
	tasks   *countedTasks
	cluster *dsim.LocalCluster
}

func (s *dsimState) stop() { s.cluster.Stop() }

func setupDsim(seed int64) func() (*dsimState, error) {
	return func() (*dsimState, error) {
		g := gen.Generate(gen.WAN(4))
		plans, err := planPool(g.Net, rand.New(rand.NewSource(seed)), 4)
		if err != nil {
			return nil, err
		}
		s := &dsimState{
			g:     g,
			store: &timedStore{inner: objstore.NewMemory()},
			tasks: &countedTasks{inner: taskdb.NewMemory()},
		}
		for _, p := range plans {
			updated, err := p.Apply(g.Net)
			if err != nil {
				return nil, err
			}
			s.cases = append(s.cases, &dsimCase{plan: p, net: updated, inputs: p.ApplyInputs(g.Inputs)})
		}
		s.cluster = dsim.StartLocalOptions(dsim.LocalOptions{Workers: 2, Store: s.store, Tasks: s.tasks})
		// Warm-up: one distributed simulation.
		_, _, err = s.simulate(nil, nil, "warm-up", s.cases[0])
		s.cleanup("warm-up")
		if err != nil {
			s.stop()
			return nil, err
		}
		return s, nil
	}
}

// dsimStages accumulates per-stage time and substrate counters over traced
// tasks.
type dsimStages struct {
	upload, route, traffic time.Duration
	encode, decode         time.Duration
}

// dsimAnswer is one distributed simulation's outcome.
type dsimAnswer struct {
	RIB   string
	Paths int
}

// simulate runs distributed task id over c's changed model: upload the
// snapshot, run the route stage (enqueue, wait, collect the RIB), then the
// traffic stage.
func (s *dsimState) simulate(tr *telemetry.Tracer, stages *dsimStages, id string, c *dsimCase) (*netmodel.GlobalRIB, *dsim.TrafficSummary, error) {
	m := s.cluster.Master
	opts := core.Options{Parallelism: 1}
	root := tr.StartRoot("dsim")
	defer root.End()
	parent := root.Context()

	stage := func(name string, acc *time.Duration, fn func() error) error {
		sp := tr.StartChild(parent, name)
		t0 := time.Now()
		err := fn()
		*acc += time.Since(t0)
		sp.End()
		return err
	}
	var snapKey string
	var rt *dsim.RouteTask
	var rib *netmodel.GlobalRIB
	var sum *dsim.TrafficSummary
	var upload, route, traffic, encode, decode time.Duration
	put0 := s.store.putNanos.Load()
	if err := stage("dsim.upload", &upload, func() (err error) {
		snapKey, err = m.UploadSnapshot(id, c.net)
		return err
	}); err != nil {
		return nil, nil, err
	}
	encode = upload - time.Duration(s.store.putNanos.Load()-put0)
	if err := stage("dsim.route_stage", &route, func() (err error) {
		if rt, err = m.StartRouteSimulation(id, snapKey, c.inputs, dsimSubtasks, opts); err != nil {
			return err
		}
		if err = m.Wait(id, "route", rt.Subtasks); err != nil {
			return err
		}
		get0 := s.store.getNanos.Load()
		t0 := time.Now()
		rib, err = m.CollectRouteResults(rt)
		decode += time.Since(t0) - time.Duration(s.store.getNanos.Load()-get0)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := stage("dsim.traffic_stage", &traffic, func() error {
		tt, err := m.StartTrafficSimulation(id, rt, s.g.Flows, dsimSubtasks, dsim.StrategyOrdered, opts)
		if err != nil {
			return err
		}
		if err = m.Wait(id, "traffic", tt.Subtasks); err != nil {
			return err
		}
		get0 := s.store.getNanos.Load()
		t0 := time.Now()
		sum, err = m.CollectTrafficResults(tt)
		decode += time.Since(t0) - time.Duration(s.store.getNanos.Load()-get0)
		return err
	}); err != nil {
		return nil, nil, err
	}
	root.End()
	if stages != nil {
		stages.upload += upload
		stages.route += route
		stages.traffic += traffic
		stages.encode += encode
		stages.decode += decode
	}
	return rib, sum, nil
}

// cleanup drops a finished task's objects, bypassing the counters, so the
// in-memory store does not grow across the run.
func (s *dsimState) cleanup(id string) {
	keys, _ := s.store.inner.List("tasks/" + id + "/")
	for _, k := range keys {
		s.store.inner.Delete(k)
	}
}

func runDsim(cfg runConfig) (*report, error) {
	st, setupS, err := repeatSetup(setups, setupDsim(cfg.Seed), (*dsimState).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	rep := newReport()
	rep.e2e["setup_s"] = setupS
	rnd := rand.New(rand.NewSource(cfg.Seed))
	book := newAnswerBook()
	used := map[*dsimCase]bool{}
	nextCase := dealer(rnd, st.cases)
	var tr *telemetry.Tracer
	var stages *dsimStages
	op := func() (time.Duration, bool, error) {
		c := nextCase()
		id := fmt.Sprintf("bench-%d", rep.attempted)
		rep.attempted++
		t0 := time.Now()
		rib, sum, err := st.simulate(tr, stages, id, c)
		l := time.Since(t0)
		st.cleanup(id)
		if err != nil {
			return 0, false, err
		}
		used[c] = true
		return l, true, book.record(c.plan.ID, &dsimAnswer{RIB: ribDigest(rib), Paths: len(sum.Paths)})
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
		tr, stages = telemetry.NewTracer("hoyanbench"), &dsimStages{}
		cache0, ops0, tdb0, bytes0 := st.cluster.CacheStats(), st.store.ops.Load(), st.tasks.ops.Load(), st.store.bytes.Load()
		put0, get0 := st.store.putNanos.Load(), st.store.getNanos.Load()
		var q0 mq.Stats
		qs, hasQ := st.cluster.Svc.Queue.(mq.StatsProvider)
		if hasQ {
			q0 = qs.Stats()
		}
		gcm := startGC()
		lat, _, err := closedLoop(cfg.Duration-cfg.Duration/3, op)
		if err != nil {
			return nil, err
		}
		rep.layers["gc.loop_cpu_share"] = gcm.share()
		n := float64(len(lat))
		cache := st.cluster.CacheStats()
		hits := float64(cache.RIBFileHits - cache0.RIBFileHits)
		misses := float64(cache.RIBFileMisses - cache0.RIBFileMisses)
		rep.layers["dsim.upload_ms"] = ms(stages.upload) / n
		rep.layers["dsim.route_stage_ms"] = ms(stages.route) / n
		rep.layers["dsim.traffic_stage_ms"] = ms(stages.traffic) / n
		rep.layers["dsim.rib_cache_hit_ratio"] = ratio(hits, hits+misses)
		rep.layers["wire.encode_ms"] = ms(stages.encode) / n
		rep.layers["wire.decode_ms"] = ms(stages.decode) / n
		rep.layers["wire.bytes_per_task"] = float64(st.store.bytes.Load()-bytes0) / n
		rep.layers["objstore.put_ms"] = ms(time.Duration(st.store.putNanos.Load()-put0)) / n
		rep.layers["objstore.get_ms"] = ms(time.Duration(st.store.getNanos.Load()-get0)) / n
		rep.layers["objstore.ops"] = float64(st.store.ops.Load()-ops0) / n
		rep.layers["taskdb.ops"] = float64(st.tasks.ops.Load()-tdb0) / n
		if hasQ {
			rep.layers["mq.msgs"] = float64(qs.Stats().Pushes-q0.Pushes) / n
		}
		self := selfTimes(rep, tr.Spans())
		rep.layers["trace.unattributed_ms"] = ms(self["dsim"]) / n
		rep.layers["trace.overhead_frac"] = ratio(percentile(lat, 0.5), percentile(untraced, 0.5)) - 1
		rep.samples["latency_traced"] = len(lat)
		rep.samples["latency_untraced"] = len(untraced)
		if err := finishTrace(rep, cfg, "dsim-wan4", tr); err != nil {
			return nil, err
		}
	}

	// Oracle: every distributed answer against the centralized engine's run
	// of the same changed model.
	checked := 0
	for _, c := range st.cases {
		if !used[c] {
			continue
		}
		res := core.NewEngine(c.net, core.Options{Parallelism: 1}).Run(c.inputs, st.g.Flows)
		var got dsimAnswer
		book.lookup(c.plan.ID, &got)
		if want := ribDigest(res.Routes.GlobalRIB()); got.RIB != want {
			return nil, wrongf("distributed simulation of %s: RIB digest %s, centralized %s", c.plan.ID, got.RIB, want)
		}
		checked++
	}
	rep.checked = checked + book.repeats
	rep.notes = append(rep.notes, fmt.Sprintf("oracle: %d changed models matched the centralized engine, %d repeats matched their first answer", checked, book.repeats))
	return rep, nil
}
