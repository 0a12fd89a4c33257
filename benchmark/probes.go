package main

// Layer probes: each drives one internal package through its exported
// functions at the size the workload runs it at, and reports what the
// session spans cannot see. Layers with no usable seam are listed in
// README.md under "needs in-program tracing".

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"dtmsvs"
	"dtmsvs/internal/behavior"
	"dtmsvs/internal/channel"
	"dtmsvs/internal/checkpoint"
	"dtmsvs/internal/cluster"
	"dtmsvs/internal/coord"
	"dtmsvs/internal/ddqn"
	"dtmsvs/internal/grouping"
	"dtmsvs/internal/kmeans"
	"dtmsvs/internal/mobility"
	"dtmsvs/internal/parallel"
	"dtmsvs/internal/predict"
	"dtmsvs/internal/sim"
	"dtmsvs/internal/stats"
	"dtmsvs/internal/tracebin"
	"dtmsvs/internal/udt"
	"dtmsvs/internal/vecmath"
	"dtmsvs/internal/video"
)

// probeSteps is how many steady-state intervals the engine probes
// (sim, cluster, coord) time; probeFixedK bypasses DDQN training in the
// boundary probes, whose subject is the boundary, not learning.
const (
	probeSteps  = 8
	probeFixedK = 4
)

// feed is everything that fills one harness-built twin: sim does not
// export its twins, so the probes build their own through the same
// substrate packages (the examples/campus path).
type feed struct {
	twin    *udt.Twin
	mob     mobility.Model
	link    *channel.Link
	profile *behavior.Profile
	rng     *rand.Rand
}

type twinSet struct {
	cfg      dtmsvs.Config // defaulted
	feeds    []feed
	catalog  *video.Catalog
	stations []*channel.BaseStation
	params   channel.Params
	rounds   int // intervals fed so far
}

// newTwinSet builds n users with sim's mobility mix and preference
// draw; interval feeds them.
func newTwinSet(cfg dtmsvs.Config, n int) (*twinSet, error) {
	c := cfg.Defaulted()
	rng := rand.New(rand.NewSource(c.Seed))
	campus := mobility.CampusMap()
	stations, err := channel.GridDeploy(campus, c.NumBS, c.TxPowerDBm)
	if err != nil {
		return nil, err
	}
	catalog, err := video.NewCatalog(video.CatalogConfig{NumVideos: c.CatalogSize, CategoryWeights: c.CategoryWeights}, rng)
	if err != nil {
		return nil, err
	}
	favDist, err := stats.NewCategorical(c.CategoryWeights)
	if err != nil {
		return nil, err
	}
	ts := &twinSet{cfg: c, catalog: catalog, stations: stations, params: channel.DefaultParams()}
	for i := 0; i < n; i++ {
		urng := rand.New(rand.NewSource(parallel.DeriveSeed(c.Seed, uint64(i))))
		pref, err := behavior.NewRandomPreference(urng, video.AllCategories()[favDist.Sample(urng)], 6)
		if err != nil {
			return nil, err
		}
		profile, err := behavior.NewProfile(pref, 0.5+0.5*urng.Float64())
		if err != nil {
			return nil, err
		}
		var mob mobility.Model
		switch i % 4 {
		case 0:
			mob, err = mobility.NewRandomWaypoint(campus, 0.4, 1.2, 90, urng)
		case 1:
			mob, err = mobility.NewLandmarkWalk(campus, 3+urng.Intn(3), 0.8, urng)
		case 2:
			mob, err = mobility.NewGaussMarkov(campus, 0.9, 0.9, 0.2, 0.25, urng)
		default:
			mob = &mobility.Static{P: campus.RandomPoint(urng)}
		}
		if err != nil {
			return nil, err
		}
		bs, err := channel.NearestBS(stations, mob.Position())
		if err != nil {
			return nil, err
		}
		link, err := channel.NewLink(ts.params, bs, urng)
		if err != nil {
			return nil, err
		}
		twin, err := udt.NewTwin(i, udt.Config{HistoryLen: 4 * c.TicksPerInterval})
		if err != nil {
			return nil, err
		}
		ts.feeds = append(ts.feeds, feed{twin: twin, mob: mob, link: link, profile: profile, rng: urng})
	}
	return ts, nil
}

// interval feeds every twin one interval: status collection each tick,
// then an individual browsing session, as sim's warm-up does.
func (ts *twinSet) interval() error {
	c := ts.cfg
	dt := c.IntervalS / float64(c.TicksPerInterval)
	for _, f := range ts.feeds {
		var snr stats.Online
		for tick := 0; tick < c.TicksPerInterval; tick++ {
			pos, err := f.mob.Advance(dt)
			if err != nil {
				return err
			}
			nearest, err := channel.NearestBS(ts.stations, pos)
			if err != nil {
				return err
			}
			if nearest.ID != f.link.BS().ID {
				if err := f.link.Handover(nearest); err != nil {
					return err
				}
			}
			s := f.link.Sample(pos)
			snr.Add(s)
			f.twin.Tick()
			if _, err := f.twin.CollectChannel(channel.CQI(s)); err != nil {
				return err
			}
			f.twin.CollectLocation(pos.X, pos.Y)
			if _, err := f.twin.CollectPreference(f.profile.Pref); err != nil {
				return err
			}
		}
		linkBps := ts.params.RateBps(snr.Mean()) * float64(c.NominalRBsPerGroup)
		events, err := behavior.Session(ts.catalog, f.profile, c.IntervalS, linkBps, f.rng)
		if err != nil {
			return err
		}
		for _, e := range events {
			if _, err := f.twin.CollectView(e.Video.Category, e.WatchS, e.Engagement(), e.Swiped); err != nil {
				return err
			}
		}
	}
	ts.rounds++
	return nil
}

func (ts *twinSet) feedTo(rounds int) error {
	for ts.rounds < rounds {
		if err := ts.interval(); err != nil {
			return err
		}
	}
	return nil
}

func (ts *twinSet) twins() []*udt.Twin {
	out := make([]*udt.Twin, len(ts.feeds))
	for i, f := range ts.feeds {
		out[i] = f.twin
	}
	return out
}

// constEnv is a one-step environment with a fixed state, so that
// Agent.Train's time is the agent's own act/observe/learn loop.
type constEnv struct{ state vecmath.Vec }

func (e constEnv) Reset() (vecmath.Vec, error) { return e.state, nil }
func (e constEnv) Step(action int) (vecmath.Vec, float64, bool, error) {
	return e.state, float64(action) / 8, true, nil
}

// sinkhole keeps kernel results alive so the calls are not optimised out.
var sinkhole float64

// probeLearning covers grouping, kmeans, ddqn, cnn, vecmath, udt and
// predict on n harness-built twins. intervals is the workload's length:
// the predict probe runs on twins holding 4 intervals of views (early)
// and on the same twins holding all of them (late).
func probeLearning(h *harness, cfg dtmsvs.Config, n, intervals int) ([]reading, error) {
	c := cfg.Defaulted()
	var out []reading
	add := func(name string, v float64, unit string) {
		out = append(out, reading{name: name, value: v, unit: unit})
	}

	ts, err := newTwinSet(cfg, n)
	if err != nil {
		return nil, err
	}
	if err := ts.feedTo(c.WarmupIntervals); err != nil {
		return nil, err
	}
	twins := ts.twins()

	rng := rand.New(rand.NewSource(c.Seed))
	b, err := grouping.New(c.Grouping, rng)
	if err != nil {
		return nil, err
	}
	pool := parallel.New(0)
	gemm := vecmath.NewGEMMPool(0)
	defer gemm.Close()
	b.SetPool(pool)
	b.SetGEMMPool(gemm)

	var loss float64
	ms, err := h.timed("grouping.TrainCompressor", func() (err error) {
		loss, err = b.TrainCompressor(twins, c.CompressorEpochs)
		return err
	})
	if err != nil {
		return nil, err
	}
	add("grouping.train_compressor_ms", ms, "ms")
	// TrainCompressor is Windows plus Compressor.Fit; the windows are a
	// copy, the fit is the time.
	add("cnn.fit_ms_per_epoch", ms/float64(c.CompressorEpochs), "ms")
	add("cnn.recon_loss", loss, "loss")

	var rewards []float64
	if ms, err = h.timed("grouping.TrainAgent", func() (err error) {
		rewards, err = b.TrainAgent(twins, c.AgentEpisodes)
		return err
	}); err != nil {
		return nil, err
	}
	add("grouping.train_agent_ms", ms, "ms")
	tail := rewards
	if len(tail) > 20 {
		tail = tail[len(tail)-20:]
	}
	add("ddqn.tail_reward", sum(tail)/float64(len(tail)), "reward")

	var res *grouping.Result
	if ms, err = h.timed("grouping.Build", func() (err error) {
		res, err = b.Build(twins)
		return err
	}); err != nil {
		return nil, err
	}
	add("grouping.build_ms", ms, "ms")
	add("grouping.selected_k", float64(res.K), "count")

	// ddqn: the agent alone, on an environment that costs nothing.
	agent, err := ddqn.New(ddqn.Config{StateDim: grouping.StateDim, NumActions: c.Grouping.KMax - c.Grouping.KMin + 1}, rng)
	if err != nil {
		return nil, err
	}
	agent.SetGEMMPool(gemm)
	const agentSteps = 2000
	if ms, err = h.timed("ddqn.Train", func() error {
		_, err := agent.Train(constEnv{state: make(vecmath.Vec, grouping.StateDim)}, agentSteps, 1)
		return err
	}); err != nil {
		return nil, err
	}
	add("ddqn.learn_us_per_step", ms*1000/agentSteps, "us")

	// kmeans: Lloyd at workload n on the trained codes.
	codes, k := res.Codes, res.K
	var runs []float64
	var km *kmeans.Result
	for i := 0; i < 5; i++ {
		if ms, err = h.timed("kmeans.Run", func() (err error) {
			km, err = kmeans.Run(codes, k, rng, kmeans.Options{Pool: pool})
			return err
		}); err != nil {
			return nil, err
		}
		runs = append(runs, ms)
	}
	add("kmeans.run_ms", median(runs), "ms")
	add("kmeans.iterations", float64(km.Iterations), "count")
	var dists *kmeans.DistMatrix
	if ms, err = h.timed("kmeans.PairDistances", func() (err error) {
		dists, err = kmeans.PairDistances(codes, pool)
		return err
	}); err != nil {
		return nil, err
	}
	add("kmeans.pair_distances_ms", ms, "ms")
	if k >= 2 {
		if ms, err = h.timed("kmeans.SilhouetteDists", func() error {
			_, err := kmeans.SilhouetteDists(dists, km.Assign, k, pool)
			return err
		}); err != nil {
			return nil, err
		}
	} else {
		ms = 0
	}
	add("kmeans.silhouette_ms", ms, "ms")
	assign := make([]int, len(codes))
	rounds := 1 + 2_000_000/len(codes)
	if ms, err = h.timed("kmeans.AssignPoints", func() error {
		for i := 0; i < rounds; i++ {
			if err := kmeans.AssignPoints(codes, km.Centroids, assign, pool); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	add("kmeans.assign_mpts_per_s", float64(rounds*len(codes))/1e6/(ms/1000), "Mpts/s")

	// vecmath: operation counts are computed (2·256³ flops per GEMM),
	// not measured.
	const dim = 256
	ma, mb, mc := vecmath.MustMatrix(dim, dim), vecmath.MustMatrix(dim, dim), vecmath.MustMatrix(dim, dim)
	ma.FillRandUniform(rng, 1)
	mb.FillRandUniform(rng, 1)
	gemm1 := vecmath.NewGEMMPool(1)
	defer gemm1.Close()
	for _, p := range []struct {
		name string
		pool *vecmath.GEMMPool
	}{{"vecmath.gemm_gflops", gemm}, {"vecmath.gemm_gflops_w1", gemm1}} {
		const reps = 10
		if err := p.pool.MatMulInto(mc, ma, mb); err != nil { // warm the crew
			return nil, err
		}
		if ms, err = h.timed(p.name, func() error {
			for i := 0; i < reps; i++ {
				if err := p.pool.MatMulInto(mc, ma, mb); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		add(p.name, 2*dim*dim*dim*reps/1e9/(ms/1000), "GFLOP/s")
	}
	const sqCalls = 2_000_000
	v := codes[0]
	w := codes[len(codes)-1]
	if ms, err = h.timed("vecmath.SqDist4Unchecked", func() error {
		for i := 0; i < sqCalls; i++ {
			s0, s1, s2, s3 := vecmath.SqDist4Unchecked(v, w, v, w, v)
			sinkhole += s0 + s1 + s2 + s3
		}
		return nil
	}); err != nil {
		return nil, err
	}
	add("vecmath.sqdist4_ns", ms*1e6/sqCalls, "ns")

	// udt: the two twin calls on every tick's and every regroup's path.
	scratch, err := udt.NewTwin(0, udt.Config{HistoryLen: 4 * c.TicksPerInterval})
	if err != nil {
		return nil, err
	}
	const views = 500_000
	if ms, err = h.timed("udt.CollectView", func() error {
		for i := 0; i < views; i++ {
			if _, err := scratch.CollectView(video.News, 12, 0.5, i%2 == 0); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	add("udt.collect_view_ns", ms*1e6/views, "ns")
	const windows = 50_000
	if ms, err = h.timed("udt.FeatureWindow", func() error {
		for i := 0; i < windows; i++ {
			if _, err := twins[i%len(twins)].FeatureWindow(c.Grouping.WindowSteps, c.Grouping.PosScale); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	add("udt.feature_window_ns", ms*1e6/windows, "ns")

	// predict: one group's abstraction while the twins' cumulative view
	// counts grow with the run.
	group := twins[:max(1, len(twins)/k)]
	for _, at := range []struct {
		label  string
		rounds int
	}{{"early", c.WarmupIntervals + 2}, {"late", c.WarmupIntervals + intervals}} {
		if err := ts.feedTo(at.rounds); err != nil {
			return nil, err
		}
		var profile []float64
		for i := 0; i < 5; i++ {
			if ms, err = h.timed("predict.BuildGroupProfile", func() error {
				_, err := predict.BuildGroupProfile(group, ts.catalog, c.TopNRecommend)
				return err
			}); err != nil {
				return nil, err
			}
			profile = append(profile, ms*1000)
		}
		obs, err := predict.ObservationsFromTwins(group)
		if err != nil {
			return nil, err
		}
		add("predict.group_profile_us_"+at.label, median(profile), "us")
		add("predict.observations_per_group_"+at.label, float64(len(obs)), "count")
	}
	return out, nil
}

// probeTracebin encodes and decodes the workload's own records.
func probeTracebin(h *harness, records []dtmsvs.TraceRecord) ([]reading, error) {
	recs := make([]tracebin.Record, len(records))
	for i, r := range records {
		recs[i] = r.GroupIntervalRecord.BinRecord(r.BS)
	}
	rounds := 3 + 300_000/len(recs)
	var buf bytes.Buffer
	encMs, err := h.timed("tracebin.encode", func() error {
		for i := 0; i < rounds; i++ {
			buf.Reset()
			bw, err := tracebin.NewWriter(&buf, tracebin.WriterOptions{})
			if err != nil {
				return err
			}
			if err := bw.Flush(recs); err != nil {
				return err
			}
			if err := bw.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	decMs, err := h.timed("tracebin.decode", func() error {
		for i := 0; i < rounds; i++ {
			back, err := tracebin.ReadAll(bytes.NewReader(buf.Bytes()))
			if err != nil {
				return err
			}
			if len(back) != len(recs) {
				return fmt.Errorf("decoded %d of %d records", len(back), len(recs))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mrec := float64(rounds*len(recs)) / 1e6
	return []reading{
		{name: "tracebin.encode_mrec_per_s", value: mrec / (encMs / 1000), unit: "Mrec/s"},
		{name: "tracebin.decode_mrec_per_s", value: mrec / (decMs / 1000), unit: "Mrec/s"},
		{name: "tracebin.bytes_per_record", value: float64(buf.Len()) / float64(len(recs)), unit: "B/record"},
	}, nil
}

// prologueMs is the time of each call of one sim engine's prologue.
type prologueMs struct {
	new, train, build float64
	warmup            []float64
}

func (p prologueMs) total() float64 { return p.new + sum(p.warmup) + p.train + p.build }

// simPrologue steps one sim engine through New, warm-up, Train and
// BuildGroups.
func simPrologue(h *harness, cfg dtmsvs.Config) (eng *sim.Simulation, p prologueMs, err error) {
	ctx := context.Background()
	if p.new, err = h.timed("sim.New", func() (err error) {
		eng, err = sim.New(cfg)
		return err
	}); err != nil {
		return nil, p, err
	}
	for i := 0; i < cfg.Defaulted().WarmupIntervals; i++ {
		ms, err := h.timed("sim.WarmupInterval", func() error { return eng.WarmupIntervalContext(ctx) })
		if err != nil {
			return nil, p, err
		}
		p.warmup = append(p.warmup, ms)
	}
	if p.train, err = h.timed("sim.Train", eng.Train); err != nil {
		return nil, p, err
	}
	p.build, err = h.timed("sim.BuildGroups", func() error { return eng.BuildGroupsContext(ctx) })
	return eng, p, err
}

// probeSim steps one sim.Simulation of n users itself, then runs the
// twin codec over every user it holds, then repeats the prologue at
// Parallelism 1.
func probeSim(h *harness, cfg dtmsvs.Config, n int) ([]reading, error) {
	ctx := context.Background()
	cfg.NumUsers = n
	cfg.NumIntervals = probeSteps
	eng, all, err := simPrologue(h, cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	trace := sim.NewTrace()
	var steps []float64
	for i := 0; i < probeSteps; i++ {
		ms, err := h.timed("sim.RunInterval", func() error { return eng.RunIntervalContext(ctx, i, trace) })
		if err != nil {
			return nil, err
		}
		steps = append(steps, ms)
	}
	ticksMs, err := h.timed("sim.CollectTicks", eng.CollectTicks)
	if err != nil {
		return nil, err
	}
	closeMs, err := h.timed("sim.CloseInterval", func() error { eng.CloseInterval(); return nil })
	if err != nil {
		return nil, err
	}

	ids := eng.UserIDs()
	blobs := make([][]byte, len(ids))
	var enc checkpoint.Enc
	var total int
	encMs, err := h.timed("sim.EncodeUser", func() error {
		for i, id := range ids {
			enc.Reset()
			if err := eng.EncodeUser(&enc, id); err != nil {
				return err
			}
			blobs[i] = append([]byte(nil), enc.Bytes()...)
			total += len(blobs[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	decMs, err := h.timed("sim.DecodeUser", func() error {
		for i, blob := range blobs {
			u, err := eng.DecodeUser(checkpoint.NewDec(blob))
			if err != nil {
				return err
			}
			if u.ID() != ids[i] {
				return fmt.Errorf("decoded user %d, want %d", u.ID(), ids[i])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	cfg.Parallelism = 1
	eng1, one, err := simPrologue(h, cfg)
	if err != nil {
		return nil, err
	}
	eng1.Close()

	users := float64(len(ids))
	return []reading{
		{name: "sim.new_ms", value: all.new, unit: "ms"},
		{name: "sim.warmup_interval_ms", value: median(all.warmup), unit: "ms", samples: len(all.warmup)},
		{name: "sim.train_ms", value: all.train, unit: "ms"},
		{name: "sim.build_groups_ms", value: all.build, unit: "ms"},
		{name: "sim.run_interval_ms_p50", value: median(steps), unit: "ms", samples: len(steps)},
		{name: "sim.collect_ticks_ms", value: ticksMs, unit: "ms"},
		{name: "sim.close_interval_ms", value: closeMs, unit: "ms"},
		{name: "checkpoint.user_encode_us", value: encMs * 1000 / users, unit: "us"},
		{name: "checkpoint.user_decode_us", value: decMs * 1000 / users, unit: "us"},
		{name: "checkpoint.user_bytes", value: float64(total) / users, unit: "B/user"},
		{name: "parallel.p1_prologue_ratio", value: one.total() / all.total(), unit: "ratio"},
	}, nil
}

// probeCluster drives cluster.Engine directly, then a two-Worker pair
// through one warm-up boundary's handover plan/apply exchange.
func probeCluster(h *harness, cfg dtmsvs.ClusterConfig) (out []reading, stepP50 float64, err error) {
	ctx := context.Background()
	var eng *cluster.Engine
	newMs, err := h.timed("cluster.New", func() (err error) {
		eng, err = cluster.New(cfg)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	defer eng.Close()
	eng.SetRetainRecords(false)
	var warm []float64
	for i := 0; i < eng.Config().Sim.WarmupIntervals; i++ {
		ms, err := h.timed("cluster.WarmupStep", func() error { return eng.WarmupStep(ctx) })
		if err != nil {
			return nil, 0, err
		}
		warm = append(warm, ms)
	}
	trainMs, err := h.timed("cluster.TrainAndBuild", func() error { return eng.TrainAndBuild(ctx) })
	if err != nil {
		return nil, 0, err
	}
	moved := eng.Handovers()
	var steps []float64
	for i := 0; i < probeSteps; i++ {
		ms, err := h.timed("cluster.StepInterval", func() error {
			_, err := eng.StepInterval(ctx, i)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		steps = append(steps, ms)
	}
	stepP50 = median(steps)
	out = []reading{
		{name: "cluster.new_ms", value: newMs, unit: "ms"},
		{name: "cluster.warmup_step_ms", value: median(warm), unit: "ms", samples: len(warm)},
		{name: "cluster.train_and_build_ms", value: trainMs, unit: "ms"},
		{name: "cluster.step_interval_ms_p50", value: stepP50, unit: "ms", samples: len(steps)},
		{name: "cluster.handovers_per_interval", value: float64(eng.Handovers()-moved) / probeSteps, unit: "count"},
	}

	const pair = 2
	var workers [pair]*cluster.Worker
	var newWorker, plan, apply []float64
	for i := range workers {
		ms, err := h.timed("cluster.NewWorker", func() (err error) {
			workers[i], err = cluster.NewWorker(cfg, i, pair)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		defer workers[i].Close()
		newWorker = append(newWorker, ms)
	}
	for round := 0; round < eng.Config().Sim.WarmupIntervals; round++ {
		var plans [pair][]cluster.Handover
		for i, wk := range workers {
			if err := wk.WarmupStep(ctx); err != nil {
				return nil, 0, err
			}
			ms, err := h.timed("cluster.PlanHandovers", func() (err error) {
				plans[i], err = wk.PlanHandovers()
				return err
			})
			if err != nil {
				return nil, 0, err
			}
			plan = append(plan, ms)
		}
		// What coord's supervisor does between the two calls: route
		// every move that carries a twin to the worker owning its cell.
		for i, wk := range workers {
			moves := plans[i]
			for _, m := range plans[1-i] {
				if m.Twin != nil {
					moves = append(moves, m)
				}
			}
			ms, err := h.timed("cluster.ApplyHandovers", func() error { return wk.ApplyHandovers(moves) })
			if err != nil {
				return nil, 0, err
			}
			apply = append(apply, ms)
		}
	}
	out = append(out,
		reading{name: "cluster.new_worker_ms", value: median(newWorker), unit: "ms", samples: len(newWorker)},
		reading{name: "cluster.plan_handovers_ms", value: median(plan), unit: "ms", samples: len(plan)},
		reading{name: "cluster.apply_handovers_ms", value: median(apply), unit: "ms", samples: len(apply)},
	)
	return out, stepP50, nil
}

// wire counts what crosses the supervisor's side of every worker
// transport, and how long the supervisor's reads blocked.
type wire struct {
	tx, rx, waitNs atomic.Int64
}

type countingTransport struct {
	coord.Transport
	r io.Reader
	w io.Writer
}

func (t countingTransport) Reader() io.Reader { return t.r }
func (t countingTransport) Writer() io.Writer { return t.w }

type wireReader struct {
	r io.Reader
	c *wire
}

func (r wireReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := r.r.Read(p)
	r.c.waitNs.Add(int64(time.Since(t0)))
	r.c.rx.Add(int64(n))
	return n, err
}

type wireWriter struct {
	w io.Writer
	c *wire
}

func (w wireWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.c.tx.Add(int64(n))
	return n, err
}

// counted wraps a transport factory (the public TransportFactory seam).
func (c *wire) counted(inner coord.TransportFactory) coord.TransportFactory {
	return func(index int) (coord.Transport, error) {
		t, err := inner(index)
		if err != nil {
			return nil, err
		}
		return countingTransport{Transport: t, r: wireReader{t.Reader(), c}, w: wireWriter{t.Writer(), c}}, nil
	}
}

// probeCoord steps a Supervisor over counted in-process transports.
// clusterStepMs is the single-process step of the same scenario.
func probeCoord(h *harness, cfg dtmsvs.ClusterConfig, workers int, clusterStepMs float64) ([]reading, error) {
	ctx := context.Background()
	var c wire
	sup, err := coord.New(coord.Config{Cluster: cfg, Workers: workers, Transport: c.counted(coord.InProcess())})
	if !h.op(err, "coord.New") {
		return nil, err
	}
	defer sup.Close()
	for i := 0; i < cfg.Defaulted().Sim.WarmupIntervals; i++ {
		if _, err := h.timed("coord.WarmupStep", func() error { return sup.WarmupStep(ctx) }); err != nil {
			return nil, err
		}
	}
	if _, err := h.timed("coord.TrainAndBuild", func() error { return sup.TrainAndBuild(ctx) }); err != nil {
		return nil, err
	}
	tx, rx, wait := c.tx.Load(), c.rx.Load(), c.waitNs.Load()
	var steps []float64
	var recs []tracebin.Record
	for i := 0; i < probeSteps; i++ {
		ms, err := h.timed("coord.StepInterval", func() error {
			got, err := sup.StepInterval(ctx, i)
			for _, r := range got {
				recs = append(recs, r.GroupIntervalRecord.BinRecord(r.BS))
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		steps = append(steps, ms)
	}
	tx, rx, wait = c.tx.Load()-tx, c.rx.Load()-rx, c.waitNs.Load()-wait

	var traceBytes bytes.Buffer
	bw, err := tracebin.NewWriter(&traceBytes, tracebin.WriterOptions{})
	if err == nil {
		err = bw.Flush(recs)
	}
	if err == nil {
		err = bw.Close()
	}
	if err != nil {
		return nil, err
	}

	p50 := median(steps)
	return []reading{
		{name: "coord.step_interval_ms_p50", value: p50, unit: "ms", samples: len(steps)},
		{name: "coord.boundary_share", value: 1 - clusterStepMs/p50, unit: "ratio"},
		{name: "coord.interval_tax", value: p50 / clusterStepMs, unit: "ratio"},
		{name: "coord.tx_bytes_per_boundary", value: float64(tx) / probeSteps, unit: "B"},
		{name: "coord.rx_bytes_per_boundary", value: float64(rx) / probeSteps, unit: "B"},
		{name: "coord.rx_bytes_per_user", value: float64(rx) / probeSteps / float64(cfg.Sim.NumUsers), unit: "B/user"},
		{name: "coord.wire_to_trace_ratio", value: float64(tx+rx) / float64(traceBytes.Len()), unit: "ratio"},
		{name: "coord.read_wait_ms_per_boundary", value: float64(wait) / 1e6 / probeSteps / float64(workers), unit: "ms"},
		{name: "coord.restarts", value: float64(sup.Restarts()), unit: "count"},
		{name: "coord.heartbeat_misses", value: float64(sup.HeartbeatMisses()), unit: "count"},
	}, nil
}
