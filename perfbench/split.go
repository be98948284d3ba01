package main

import (
	"fmt"
	"math"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/components/memories"
	"rlgraph/internal/exec"
	"rlgraph/internal/execution"
	"rlgraph/internal/partition"
	"rlgraph/internal/raysim"
	"rlgraph/internal/spaces"
	"rlgraph/internal/tensor"
)

// splitDevices cuts the learner graph across two devices: both Q networks on
// gpu0, loss, optimizer and the rest on cpu0.
var splitDevices = exec.DeviceMap{
	"dqn-agent/policy/network": "gpu0",
	"dqn-agent/target-policy":  "gpu0",
}

const (
	prefillTransitions = 4096 // replay contents of learner-split
	checkUpdates       = 24   // bit-equality check pass against the unsplit twin
	// splitWindow is the window updates_per_s is measured over; the phase
	// reports the median over all rounds' windows.
	splitWindow = 500 * time.Millisecond
)

// splitLearner is one learner-split set-up: the device-cut learner, its
// unsplit twin, and the prioritized replay it samples from.
type splitLearner struct {
	split, twin *agents.DQN
	ds          *partition.DistSession
	cluster     *raysim.Cluster
	ct          *exec.ComponentTest
}

func (s *splitLearner) close() {
	if se, ok := s.split.Executor().(*exec.StaticExecutor); ok {
		se.DisablePartitionedExecution()
	}
	s.cluster.StopAll()
}

// prefillBatches generates the replay contents from seeded feature-Pong
// worker batches (with worker-side priorities).
func (r *run) prefillBatches() ([]*execution.Batch, error) {
	w, err := r.wl.newWorker(r.seed*1000+500, nil)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	var out []*execution.Batch
	for n := 0; n < prefillTransitions; {
		b, err := w.Sample(taskSize)
		if err != nil {
			return nil, err
		}
		if b.Len() > 0 {
			out = append(out, b)
			n += b.Len()
		}
	}
	return out, nil
}

func (r *run) newSplitLearner(batches []*execution.Batch, tr *tracer) (*splitLearner, error) {
	seed := r.seed*1000 + 2
	split, err := r.wl.newAgent(seed, splitDevices)
	if err != nil {
		return nil, err
	}
	twin, err := r.wl.newAgent(seed, nil)
	if err != nil {
		return nil, err
	}
	se, ok := split.Executor().(*exec.StaticExecutor)
	if !ok {
		return nil, fmt.Errorf("learner-split: learner is not on the static backend")
	}
	cluster := raysim.NewCluster(raysim.Config{})
	ds, err := se.EnablePartitionedExecution(cluster, partition.DefaultConfig())
	if err != nil {
		return nil, err
	}
	mem := memories.NewPrioritizedReplay("replay", 2*prefillTransitions, 5, 0.6, 0.4, r.seed)
	sB := pongEnv(0).StateSpace().WithBatchRank()
	fB := spaces.NewFloatBox().WithBatchRank()
	ct, err := exec.NewComponentTest("define-by-run", mem.Component, exec.InputSpaces{
		"insert_with_priorities": {sB, fB, fB, sB, fB, fB},
		"sample":                 {spaces.NewFloatBox()},
		"update":                 {fB, fB},
	})
	if err != nil {
		return nil, err
	}
	for _, b := range batches {
		if _, err := timed(tr, "memories.insert", 0, func() ([]*tensor.Tensor, error) {
			return ct.Test("insert_with_priorities", b.S, b.A, b.R, b.NS, b.T, b.Prio)
		}); err != nil {
			return nil, err
		}
	}
	return &splitLearner{split: split, twin: twin, ds: ds, cluster: cluster, ct: ct}, nil
}

// sample draws one learner batch: s, a, r, ns, t, indices, weights.
func (s *splitLearner) sample(tr *tracer, parent int64) ([]*tensor.Tensor, error) {
	return timed(tr, "memories.sample", parent, func() ([]*tensor.Tensor, error) {
		return s.ct.Test("sample", tensor.Scalar(batchSize))
	})
}

type updateOut struct {
	loss float64
	td   *tensor.Tensor
}

func update(tr *tracer, name string, parent int64, a *agents.DQN, b []*tensor.Tensor) (updateOut, error) {
	return timed(tr, name, parent, func() (updateOut, error) {
		loss, td, err := a.UpdateExternal(b[0], b[1], b[2], b[3], b[4], b[6])
		return updateOut{loss, td}, err
	})
}

// checkStep feeds one batch to both learners and compares loss and TD errors
// bit for bit, then writes the split learner's priorities back.
func (s *splitLearner) checkStep(tr *tracer) error {
	b, err := s.sample(nil, 0)
	if err != nil {
		return err
	}
	got, err := update(nil, "", 0, s.split, b)
	if err != nil {
		return err
	}
	want, err := update(tr, "agents.update_single", 0, s.twin, b)
	if err != nil {
		return err
	}
	if math.Float64bits(got.loss) != math.Float64bits(want.loss) {
		return fmt.Errorf("loss %v differs from the unsplit twin's %v", got.loss, want.loss)
	}
	gd, wd := got.td.Data(), want.td.Data()
	if len(gd) != len(wd) {
		return fmt.Errorf("TD errors have %d values, the twin's %d", len(gd), len(wd))
	}
	for i := range gd {
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			return fmt.Errorf("TD error %d is %v, the unsplit twin's %v", i, gd[i], wd[i])
		}
	}
	_, err = s.ct.Test("update", b[5], got.td)
	return err
}

// splitPhase is the Ape-X learner path with the learner's graph cut across
// two devices. Each round builds the split learner, its unsplit twin and a
// pre-filled prioritized replay, then loops sample -> UpdateExternal ->
// priority update.
type splitPhase struct {
	r       *run
	batches []*execution.Batch // replay contents, generated once per run
	rates   []float64          // updates per second in each window

	// Traced rounds only.
	tracedCheck       bool
	attempted, failed int64
	wall              float64
	part              partition.Metrics
	fragCalls         int64
	fragWait          time.Duration
}

func (p *splitPhase) name() string      { return "learner-split" }
func (p *splitPhase) lowerBetter() bool { return false }

// round runs the split learner for d and returns the median windowed rate.
func (p *splitPhase) round(k int, d time.Duration, tr *tracer) (float64, error) {
	r := p.r
	if p.batches == nil {
		var err error
		if p.batches, err = r.prefillBatches(); err != nil {
			return 0, err
		}
	}
	var sl *splitLearner
	err := r.timeSetup(p.name(), func() error {
		var err error
		if sl, err = r.newSplitLearner(p.batches, tr); err != nil {
			return err
		}
		// Warm-up: the first update deploys the partition and compiles its
		// fragment plans. It is the first step of the check pass.
		if err := sl.checkStep(tr); err != nil {
			r.fail("learner-split round %d: check update 1: %v", k, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	defer sl.close()
	// The full check pass runs in the first round, and in the first traced
	// one, whose twin updates give agents.update_single_ms_p50.
	if k == 0 || (tr != nil && !p.tracedCheck) {
		p.tracedCheck = tr != nil
		for i := 2; i <= checkUpdates; i++ {
			if err := sl.checkStep(tr); err != nil {
				r.fail("learner-split: check update %d: %v", i, err)
				break
			}
		}
	}
	if m := sl.ds.Metrics(); m.Runs == 0 || m.CutValuesSent == 0 {
		r.fail("learner-split round %d: updates did not run partitioned (%+v)", k, m)
	}
	m0 := sl.ds.Metrics()
	before := sl.cluster.ActorMetricsSnapshot()

	var attempted, failed int64
	var rates []float64
	start := time.Now()
	winStart, winOK := start, 0
	for time.Since(start) < d {
		attempted++
		var iter int64
		var iterStart time.Time
		if tr != nil {
			iter, iterStart = tr.id(), time.Now()
		}
		b, err := sl.sample(tr, iter)
		if err == nil {
			var out updateOut
			if out, err = update(tr, "agents.update", iter, sl.split, b); err == nil {
				_, err = timed(tr, "memories.update", iter, func() ([]*tensor.Tensor, error) {
					return sl.ct.Test("update", b[5], out.td)
				})
			}
		}
		if tr != nil {
			tr.record("learner-split.iteration", iter, 0, 0, iterStart, time.Now())
		}
		if err != nil {
			failed++
			r.note("learner-split round %d: update failed: %v", k, err)
		} else {
			winOK++
		}
		if now := time.Now(); now.Sub(winStart) >= splitWindow {
			rates = append(rates, float64(winOK)/now.Sub(winStart).Seconds())
			winStart, winOK = now, 0
		}
	}
	wall := time.Since(start).Seconds()
	if !weightsFinite(sl.split.GetWeights()) {
		r.fail("learner-split round %d: learner weights are not finite", k)
	}
	r.count(attempted, failed)
	p.rates = append(p.rates, rates...)
	if tr != nil {
		p.attempted += attempted
		p.failed += failed
		p.wall += wall
		m := sl.ds.Metrics()
		p.part.Runs += m.Runs - m0.Runs
		p.part.Attempts += m.Attempts - m0.Attempts
		p.part.Retries += m.Retries - m0.Retries
		p.part.CutValuesSent += m.CutValuesSent - m0.CutValuesSent
		p.part.CutBytesMoved += m.CutBytesMoved - m0.CutBytesMoved
		p.part.TokensSent += m.TokensSent - m0.TokensSent
		for name, am := range sl.cluster.ActorMetricsSnapshot() {
			p.fragCalls += am.CallsProcessed - before[name].CallsProcessed
			p.fragWait += am.QueueWaitTotal - before[name].QueueWaitTotal
		}
	}
	r.note("learner-split round %d: %d updates (%d failed) in %.2fs", k, attempted, failed, wall)
	return median(rates), nil
}

func (p *splitPhase) finish(tr *tracer) {
	r := p.r
	r.set("learner-split.updates_per_s", median(p.rates))
	if tr == nil {
		return
	}
	r.set("learner-split.failed_share", ratio(float64(p.failed), float64(p.attempted)))
	r.set("memories.sample_ms_p50", median(tr.durations("memories.sample")))
	r.set("memories.update_ms_p50", median(tr.durations("memories.update")))
	r.set("memories.insert_ms_p50", median(tr.durations("memories.insert")))
	r.set("agents.update_ms_p50", median(tr.durations("agents.update")))
	r.set("agents.update_busy_share", ratio(tr.busy("agents.update"), p.wall))
	r.set("agents.update_single_ms_p50", median(tr.durations("agents.update_single")))
	m := p.part
	runs := float64(m.Runs)
	r.set("partition.cut_values_per_run", ratio(float64(m.CutValuesSent), runs))
	r.set("partition.cut_bytes_per_run", ratio(float64(m.CutBytesMoved), runs))
	r.set("partition.tokens_per_run", ratio(float64(m.TokensSent), runs))
	r.set("partition.attempts_per_run", ratio(float64(m.Attempts), runs))
	r.set("partition.retries", float64(m.Retries))
	r.set("raysim.fragment_calls_per_run", ratio(float64(p.fragCalls), runs))
	r.set("raysim.fragment_queue_wait_us_avg", ratio(float64(p.fragWait.Microseconds()), float64(p.fragCalls)))
}
