package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/distexec"
	"rlgraph/internal/fleet"
	"rlgraph/internal/graph"
	"rlgraph/internal/serve"
	"rlgraph/internal/tensor"
)

// servingFleet is one 2-replica fleet plus the agents its replicas were
// built from (for the graph-layer counters).
type servingFleet struct {
	rt     *fleet.Router
	mu     sync.Mutex
	agents []*agents.DQN
}

func (f *servingFleet) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = f.rt.Shutdown(ctx) // requests have drained; a late error changes nothing
}

// sessions returns the graph sessions of every replica built so far.
func (f *servingFleet) sessions() []*graph.Session {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []*graph.Session
	for _, a := range f.agents {
		out = append(out, session(a))
	}
	return out
}

// newFleet builds the fleet from the layer constructors: every replica is a
// freshly built greedy dueling DQN with the same seed. tr non-nil wraps each
// replica's runner (exec.forward) and weight sink (exec.set_weights).
func (r *run) newFleet(tr *tracer) (*servingFleet, error) {
	f := &servingFleet{}
	build := func(i int) (serve.Runner, func(map[string]*tensor.Tensor) error, error) {
		a, err := r.wl.newAgent(r.serveSeed(), nil)
		if err != nil {
			return nil, nil, err
		}
		f.mu.Lock()
		f.agents = append(f.agents, a)
		f.mu.Unlock()
		run := serve.ExecutorRunner(a.Executor(), "get_actions_greedy")
		setW := a.SetWeights
		if tr == nil {
			return run, setW, nil
		}
		tracedRun := func(b *tensor.Tensor) (*tensor.Tensor, error) {
			return timed(tr, "exec.forward", 0, func() (*tensor.Tensor, error) { return run(b) })
		}
		tracedSetW := func(w map[string]*tensor.Tensor) error {
			_, err := timed(tr, "exec.set_weights", 0, func() (struct{}, error) { return struct{}{}, setW(w) })
			return err
		}
		return tracedRun, tracedSetW, nil
	}
	rt, err := fleet.New(fleet.Config{
		Replicas: replicas,
		Build:    build,
		Serve: serve.Config{
			MaxBatch: serveMaxBatch, FlushLatency: serveFlush, QueueDepth: serveQueue,
			Elem: pongEnv(0).StateSpace(),
		},
		Seed: r.seed,
	})
	if err != nil {
		return nil, err
	}
	f.rt = rt
	return f, nil
}

func (r *run) serveSeed() int64 { return r.seed*1000 + 3 }

// warmUp sends a few requests through every replica so plans are compiled
// before the first timed request.
func warmUp(rt *fleet.Router, obs []*tensor.Tensor) error {
	for i := 0; i < 32; i++ {
		if _, _, err := rt.ActVersion(obs[i%len(obs)], time.Now().Add(time.Second)); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
	}
	return nil
}

// checkResponses replays sampled responses on a reference agent holding the
// stamped version's weights: greedy actions must match bit for bit, and
// every stamp must be a version that was installed.
func (r *run) checkResponses(phase string, obs []*tensor.Tensor, samples []sampled, weights map[int64]map[string]*tensor.Tensor) error {
	ref, err := r.wl.newAgent(r.serveSeed(), nil)
	if err != nil {
		return err
	}
	byVer := map[int64][]sampled{}
	for _, s := range samples {
		byVer[s.ver] = append(byVer[s.ver], s)
	}
	checked := 0
	for ver, ss := range byVer {
		w, ok := weights[ver]
		if !ok {
			r.fail("%s: %d responses stamped with version %d, which was never pushed", phase, len(ss), ver)
			continue
		}
		if err := ref.SetWeights(w); err != nil {
			return err
		}
		// One row at a time, as a single request would be served alone.
		for _, s := range ss {
			got, err := ref.GetActions(tensor.Stack(obs[s.obs]), false)
			if err != nil {
				return err
			}
			if math.Float64bits(got.Data()[0]) != math.Float64bits(s.action) {
				r.fail("%s: response for observation %d at version %d is action %v, the reference gives %v",
					phase, s.obs, ver, s.action, got.Data()[0])
				return nil
			}
			checked++
		}
	}
	if checked == 0 {
		r.fail("%s: no responses were checked", phase)
	}
	return nil
}

// checkIdentities waits for quiescence and checks the fleet's exactly-once
// request accounting.
func (r *run) checkIdentities(phase string, rt *fleet.Router) fleet.Metrics {
	var m fleet.Metrics
	for deadline := time.Now().Add(2 * time.Second); ; {
		m = rt.Metrics()
		routedOK := m.Routed == m.Completed+m.RetriedAway+m.Misses+m.Failed
		reqOK := m.Requests == m.Completed+m.Misses+m.Failed+m.Unroutable
		if routedOK && reqOK {
			return m
		}
		if time.Now().After(deadline) {
			r.fail("%s: fleet identities broken at quiescence: %+v", phase, m)
			return m
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// batchTotals returns the batches the fleet's replicas have run and the rows
// in them.
func batchTotals(rt *fleet.Router) (batches, rows float64) {
	for _, rm := range rt.Metrics().Replicas {
		batches += float64(rm.Serve.Batches)
		rows += rm.Serve.MeanBatch * float64(rm.Serve.Batches)
	}
	return batches, rows
}

// fleetCounters reports the fleet-layer counters shared by both serving
// phases (summed over them).
func (r *run) fleetCounters(m fleet.Metrics) {
	r.add("fleet.retries", float64(m.Retries))
	r.add("fleet.hedges", float64(m.Hedges))
	r.add("fleet.ejections", float64(m.Ejections))
	r.add("fleet.unroutable", float64(m.Unroutable))
}

// stepAcc accumulates one fixed-rate step's scored runs over the rounds.
type stepAcc struct {
	lat          []float64
	sent, failed int64
}

func (a *stepAcc) add(res stepResult) {
	a.lat = append(a.lat, res.lat...)
	a.sent += res.sent
	a.failed += res.notOK
}

// failedShare is failed requests / requests over the given steps.
func failedShare(steps ...*stepAcc) float64 {
	var sent, failed int64
	for _, a := range steps {
		sent += a.sent
		failed += a.failed
	}
	return ratio(float64(failed), float64(sent))
}

// openPhase is open-loop greedy Router.ActVersion traffic into a 2-replica
// fleet with no weight writes: evenly spaced arrivals at the low, mid and
// high rates, then a ladder of rates 10% apart from high. Latency is timed
// from each request's due time.
type openPhase struct {
	r       *run
	obs     []*tensor.Tensor
	weights map[string]*tensor.Tensor
	offset  int // next observation index
	steps   map[string]*stepAcc
	best    []float64 // per round: highest rate meeting ladderSLO
	// bestRungs holds each round's highest passing ladder rung (0: none);
	// later rounds start their search from their median.
	bestRungs []float64

	// Traced rounds only.
	m                        fleet.Metrics
	internalP50, internalP99 []float64
	routeP50                 []float64
	fwdWall                  float64
	graph                    sessionStats
}

func (p *openPhase) name() string      { return "serve-open" }
func (p *openPhase) lowerBetter() bool { return true }

// round serves the three fixed rates and the ladder on a fresh fleet and
// returns the mid-rate p50 (ms).
func (p *openPhase) round(k int, d time.Duration, tr *tracer) (float64, error) {
	r := p.r
	if p.obs == nil {
		p.obs = observations(r.seed*1000+4, 4096)
		init, err := r.initialWeights()
		if err != nil {
			return 0, err
		}
		p.weights = perturbed(init, r.seed*1000+5, 0.05)
		p.steps = map[string]*stepAcc{"low": {}, "mid": {}, "high": {}}
	}
	var f *servingFleet
	err := r.timeSetup(p.name(), func() error {
		var err error
		if f, err = r.newFleet(tr); err != nil {
			return err
		}
		if err = f.rt.SwapAll(p.weights, 1); err == nil {
			err = warmUp(f.rt, p.obs)
		}
		if err != nil {
			f.shutdown()
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	defer f.shutdown()

	start := time.Now()
	var samples []sampled
	var midP50 float64
	best := 0.0
	for _, st := range []struct {
		name string
		rate float64
	}{{"low", r.wl.low}, {"mid", r.wl.mid}, {"high", r.wl.high}} {
		batches0, rows0 := batchTotals(f.rt)
		res, err := r.fixedStep(fmt.Sprintf("serve-open %s round %d", st.name, k), func() stepResult {
			res := openLoop(f.rt, p.obs, p.offset, st.rate, d*15/100, p99Window, tr)
			p.offset += int(res.sent)
			return res
		})
		if err != nil {
			return 0, err
		}
		samples = append(samples, res.samples...)
		p.steps[st.name].add(res)
		if res.p99 <= ms(ladderSLO) {
			best = st.rate
		}
		if st.name == "mid" {
			midP50 = res.p50
		}
		batches, rows := batchTotals(f.rt)
		r.note("serve-open round %d %-4s %6.0f rps: p50 %.3fms p99 %.3fms, %d/%d ok, mean batch %.2f, lateness p99 %.3fms, max inflight %d",
			k, st.name, st.rate, res.p50, res.p99, res.ok, res.sent, ratio(rows-rows0, batches-batches0), res.lateP99, res.inflightMax)
	}
	if tr != nil {
		// serve's quantiles cover each replica's last serveLatRing
		// deliveries; read them after enough unscored mid-rate traffic that
		// they cover mid-rate deliveries only.
		fill, err := fillRing(f.rt, p.obs, p.offset, r.wl.mid, tr)
		if err != nil {
			return 0, fmt.Errorf("serve-open round %d: %w", k, err)
		}
		p.offset += int(fill.sent)
		samples = append(samples, fill.samples...)
		var p50, p99 []float64
		for _, rm := range f.rt.Metrics().Replicas {
			p50 = append(p50, ms(rm.Serve.P50))
			p99 = append(p99, ms(rm.Serve.P99))
		}
		p.internalP50 = append(p.internalP50, mean(p50))
		p.internalP99 = append(p.internalP99, mean(p99))
		p.routeP50 = append(p.routeP50, quantile(fill.lat, 0.5)-mean(p50))
	}

	// The ladder: rungs 10% apart from high, each scored on its p99
	// (failures count as misses). The round's max_rps_at_slo is its highest
	// rung meeting ladderSLO. A round starts two rungs below the median of
	// the earlier rounds' best rungs and steps down until a rung passes,
	// then climbs until two rungs in a row fail, a rung cannot be offered on
	// schedule (a growing backlog), or its time is up; the first round
	// climbs from high with three times the time.
	budget := d * 45 / 100
	j, bestRung := 1, 0
	if k == 0 {
		budget *= 3
	} else {
		j = max(1, int(median(p.bestRungs))-2)
	}
	ladderStart := time.Now()
	for fails := 0; j >= 1 && time.Since(ladderStart) < budget; {
		rate := r.wl.high * math.Pow(1.1, float64(j))
		rung := max(300*time.Millisecond, time.Duration(ladderWindow/rate*float64(time.Second)))
		res := openLoop(f.rt, p.obs, p.offset, rate, rung, ladderWindow, tr)
		p.offset += int(res.sent)
		samples = append(samples, res.samples...)
		r.ladderRungs++
		ok := res.valid() && res.p99 <= ms(ladderSLO)
		if !res.valid() {
			r.invalidSteps++
			r.note("serve-open round %d ladder %6.0f rps: %.1f%% of requests dispatched late, rung not scored", k, rate, 100*res.lateShare)
		} else {
			r.note("serve-open round %d ladder %6.0f rps: p99 %.3fms, %d/%d ok", k, rate, res.p99, res.ok, res.sent)
		}
		switch {
		case ok:
			best, bestRung, fails = rate, j, 0
			j++
		case bestRung == 0:
			j-- // still searching down for a passing rung
		case !res.valid():
			fails = 2
		default:
			fails++
			j++
		}
		if fails == 2 {
			break
		}
	}
	p.bestRungs = append(p.bestRungs, float64(bestRung))
	p.best = append(p.best, best)
	wall := time.Since(start).Seconds()

	if err := r.checkResponses("serve-open", p.obs, samples, map[int64]map[string]*tensor.Tensor{1: p.weights}); err != nil {
		return 0, err
	}
	m := r.checkIdentities("serve-open", f.rt)
	if tr != nil {
		addFleetMetrics(&p.m, m)
		p.fwdWall += wall * replicas
		p.graph.add(f.sessions()...)
	}
	return midP50, nil
}

func (p *openPhase) finish(tr *tracer) {
	r := p.r
	for _, name := range []string{"low", "mid", "high"} {
		acc := p.steps[name]
		r.set("serve-open.p50_ms."+name, quantile(acc.lat, 0.5))
		if name != "low" {
			r.set("serve-open.p99_ms."+name, tailP99(acc.lat, acc.failed, p99Window))
		}
	}
	r.set("serve-open.max_rps_at_slo", median(p.best))
	if tr == nil {
		return
	}
	m := p.m
	r.set("serve-open.failed_share", failedShare(p.steps["low"], p.steps["mid"], p.steps["high"]))
	r.fleetCounters(m)
	var batches, rows, shed, misses, late int64
	for _, rm := range m.Replicas {
		batches += rm.Serve.Batches
		rows += int64(rm.Serve.MeanBatch * float64(rm.Serve.Batches))
		shed += rm.Serve.Shed
		misses += rm.Serve.DeadlineMisses
		late += rm.Serve.LateResults
	}
	r.set("serve.batches", float64(batches))
	r.set("serve.mean_batch", ratio(float64(rows), float64(batches)))
	r.set("serve.shed", float64(shed))
	r.set("serve.deadline_misses", float64(misses))
	r.set("serve.late_results", float64(late))
	r.set("serve.internal_p50_ms", median(p.internalP50))
	r.set("serve.internal_p99_ms", median(p.internalP99))
	r.set("fleet.route_overhead_ms_p50", median(p.routeP50))
	fwd := tr.durations("exec.forward")
	r.set("exec.forward_calls", float64(len(fwd)))
	r.set("exec.forward_ms_p50", quantile(fwd, 0.5))
	r.set("exec.forward_ms_p99", quantile(fwd, 0.99))
	r.set("exec.forward_busy_share", ratio(tr.busy("exec.forward"), p.fwdWall))
	r.set("graph.replica.nodes_per_run", p.graph.nodesPerRun())
	r.set("graph.replica.arena_hit_rate", p.graph.hitRate())
	r.set("graph.replica.compiled_plans", float64(p.graph.plans))
}

// swapPhase is the mid rate of serve-open plus a writer: a ParameterServer
// receives a seeded perturbed snapshot every swapEvery (longer than the
// publisher's 100ms guard window, so versions do not coalesce) and a
// fleet.Publisher rolls each one across the replicas.
type swapPhase struct {
	r      *run
	obs    []*tensor.Tensor
	base   map[string]*tensor.Tensor
	snaps  []map[string]*tensor.Tensor
	mid    stepAcc
	lags   []float64 // ms, in push order
	pushes int

	// Traced rounds only.
	m         fleet.Metrics
	rollbacks int64
	pulls     int64
}

func (p *swapPhase) name() string      { return "serve-swap" }
func (p *swapPhase) lowerBetter() bool { return true }

// round serves the mid rate on a fresh fleet while the writer pushes, and
// returns the round's p50 (ms).
func (p *swapPhase) round(k int, d time.Duration, tr *tracer) (float64, error) {
	r := p.r
	if p.obs == nil {
		p.obs = observations(r.seed*1000+6, 4096)
		var err error
		if p.base, err = r.initialWeights(); err != nil {
			return 0, err
		}
		p.snaps = make([]map[string]*tensor.Tensor, swapSnapshots)
		for i := range p.snaps {
			p.snaps[i] = perturbed(p.base, r.seed*1000+100+int64(i), 0.05)
		}
	}
	var (
		f   *servingFleet
		ps  *distexec.ParameterServer
		pub *fleet.Publisher
	)
	err := r.timeSetup(p.name(), func() error {
		var err error
		if f, err = r.newFleet(tr); err != nil {
			return err
		}
		ps = distexec.NewParameterServer(p.base)
		if pub, err = fleet.StartPublisher(ps, f.rt, fleet.PublisherConfig{}); err != nil {
			f.shutdown()
			return err
		}
		if err = warmUp(f.rt, p.obs); err != nil {
			pub.Close()
			f.shutdown()
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	defer f.shutdown()
	defer pub.Close()

	nSwaps := int(d / swapEvery)
	pushedAt := map[int64]time.Time{}
	installed := map[int64]map[string]*tensor.Tensor{0: p.base}
	var pushErr error
	res, err := r.fixedStep(fmt.Sprintf("serve-swap round %d", k), func() stepResult {
		// The writer pushes snapshot i at (i+0.5)*swapEvery after the load
		// starts, so the last push still has half an interval to be served.
		start := time.Now()
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			for i := 0; i < nSwaps; i++ {
				w := p.snaps[(k*nSwaps+i)%len(p.snaps)]
				time.Sleep(time.Until(start.Add(swapEvery/2 + time.Duration(i)*swapEvery)))
				at := time.Now()
				v, err := timed(tr, "distexec.ps_push", 0, func() (int64, error) { return ps.Push(w) })
				if err != nil {
					pushErr = err
					return
				}
				pushedAt[v] = at
				installed[v] = w
			}
		}()
		res := openLoop(f.rt, p.obs, 0, r.wl.mid, time.Duration(nSwaps)*swapEvery, p99Window, tr)
		<-writerDone
		return res
	})
	if pushErr != nil {
		return 0, fmt.Errorf("serve-swap: push: %w", pushErr)
	}
	if err != nil {
		return 0, err
	}
	p.mid.add(res)

	// Swap lag: from Push to the first response stamped with that version,
	// over the scored step's pushes.
	first := map[int64]int64{}
	for _, rec := range res.recs {
		if !rec.ok || rec.ver == 0 {
			continue
		}
		if d, ok := first[rec.ver]; !ok || rec.done < d {
			first[rec.ver] = rec.done
		}
	}
	served := 0
	for v := ps.Version() - int64(nSwaps) + 1; v <= ps.Version(); v++ {
		if d, ok := first[v]; ok {
			p.lags = append(p.lags, ms(res.start.Add(time.Duration(d)).Sub(pushedAt[v])))
			served++
		}
	}
	p.pushes += nSwaps
	if served < nSwaps*9/10 {
		r.fail("serve-swap round %d: only %d of %d pushed versions were ever served", k, served, nSwaps)
	}
	if err := r.checkResponses("serve-swap", p.obs, res.samples, installed); err != nil {
		return 0, err
	}
	pub.Close()
	m := r.checkIdentities("serve-swap", f.rt)
	if tr != nil {
		addFleetMetrics(&p.m, m)
		p.rollbacks += pub.Rollbacks()
		p.pulls += ps.PullCount()
	}
	r.note("serve-swap round %d mid %6.0f rps: p50 %.3fms p99 %.3fms, %d/%d ok; %d pushes, %d served",
		k, r.wl.mid, res.p50, res.p99, res.ok, res.sent, nSwaps, served)
	return res.p50, nil
}

func (p *swapPhase) finish(tr *tracer) {
	r := p.r
	r.set("serve-swap.p50_ms.mid", quantile(p.mid.lat, 0.5))
	r.set("serve-swap.p99_ms.mid", tailP99(p.mid.lat, p.mid.failed, p99Window))
	r.set("serve-swap.swap_lag_p50_ms", quantile(p.lags, 0.5))
	r.set("serve-swap.swap_lag_p90_ms", windowedQuantile(p.lags, 0.9, lagWindow))
	if tr == nil {
		return
	}
	m := p.m
	r.set("serve-swap.failed_share", failedShare(&p.mid))
	r.fleetCounters(m)
	r.set("fleet.swaps", float64(m.Swaps))
	r.set("fleet.swap_skips", float64(m.SwapSkips))
	r.set("fleet.swap_errors", float64(m.SwapErrors))
	r.set("fleet.rollbacks", float64(p.rollbacks))
	r.set("exec.set_weights_ms_p50", median(tr.durations("exec.set_weights")))
	r.set("distexec.ps_push_ms_p50", median(tr.durations("distexec.ps_push")))
	r.set("distexec.ps_pulls", float64(p.pulls))
}

// addFleetMetrics adds one fleet's counters to a running total (replica
// serve counters are appended, one entry per replica per fleet).
func addFleetMetrics(sum *fleet.Metrics, m fleet.Metrics) {
	sum.Requests += m.Requests
	sum.Completed += m.Completed
	sum.Unroutable += m.Unroutable
	sum.Retries += m.Retries
	sum.Hedges += m.Hedges
	sum.Ejections += m.Ejections
	sum.Swaps += m.Swaps
	sum.SwapSkips += m.SwapSkips
	sum.SwapErrors += m.SwapErrors
	sum.Replicas = append(sum.Replicas, m.Replicas...)
}

// fixedStep runs one fixed-rate open-loop step and scores it. A step the
// generator could not offer on schedule is not scored and counts only in
// load.invalid_steps: it is run once more, and the phase fails if that run
// is also late.
func (r *run) fixedStep(name string, step func() stepResult) (stepResult, error) {
	for attempt := 1; ; attempt++ {
		res := step()
		if res.valid() {
			r.count(res.sent, res.notOK)
			r.loadStats(res)
			return res, nil
		}
		r.invalidSteps++
		r.note("%s: %.1f%% of requests sent over %v late; step not scored", name, 100*res.lateShare, behindLimit)
		if attempt == 2 {
			return res, fmt.Errorf("%s: the generator fell behind twice; not scored", name)
		}
	}
}

// serveLatRing is how many of a replica's most recent deliveries serve
// computes its latency quantiles over.
const serveLatRing = 4096

// fillRing sends unscored open-loop traffic at rate until every replica has
// delivered at least serveLatRing requests since it began, so serve's
// quantiles then cover deliveries at that rate only. It returns the client
// latencies and the responses kept for the output checks.
func fillRing(rt *fleet.Router, obs []*tensor.Tensor, offset int, rate float64, tr *tracer) (stepResult, error) {
	completed := func() []int64 {
		var out []int64
		for _, rm := range rt.Metrics().Replicas {
			out = append(out, rm.Serve.Completed)
		}
		return out
	}
	base := completed()
	var fill stepResult
	for chunk := 0; chunk < 100; chunk++ {
		full := true
		for i, c := range completed() {
			full = full && c-base[i] >= serveLatRing
		}
		if full {
			return fill, nil
		}
		res := openLoop(rt, obs, offset+int(fill.sent), rate, 250*time.Millisecond, p99Window, tr)
		fill.sent += res.sent
		fill.lat = append(fill.lat, res.lat...)
		fill.samples = append(fill.samples, res.samples...)
	}
	return fill, fmt.Errorf("replicas delivered under %d requests each in %d requests at %.0f rps", serveLatRing, fill.sent, rate)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// initialWeights returns the weights every replica is built with.
func (r *run) initialWeights() (map[string]*tensor.Tensor, error) {
	a, err := r.wl.newAgent(r.serveSeed(), nil)
	if err != nil {
		return nil, err
	}
	return a.GetWeights(), nil
}
