package main

import (
	"strings"
	"sync/atomic"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/distexec"
	"rlgraph/internal/envs"
	"rlgraph/internal/raysim"
)

// apexPhase is the closed-loop Ape-X loop of Fig. 6: 1 worker x 4
// feature-Pong envs, 2 replay shards, learner batch 64, the default raysim
// cost model. Each round builds a fresh learner and executor and runs it.
type apexPhase struct {
	r        *run
	fps, ups []float64 // per round

	// Traced rounds only.
	probe  apexProbe
	sum    distexec.ApexResult
	actors actorTotals
	graph  sessionStats
}

// apexProbe collects the traced rounds' wrapper tallies.
type apexProbe struct {
	env                          *stepAgg
	selfNs, transitions, insertB atomic.Int64
}

func (p *apexPhase) name() string      { return "apex-pong" }
func (p *apexPhase) lowerBetter() bool { return false }

// newApex builds an executor around learner; tr non-nil wraps the worker
// and its envs.
func (p *apexPhase) newApex(learner *agents.DQN, tr *tracer) (*distexec.ApexExecutor, error) {
	r := p.r
	factory := func(i int) (distexec.SampleWorker, error) {
		var wrap func(envs.Env) envs.Env
		if tr != nil {
			wrap = func(e envs.Env) envs.Env { return tracedEnv{Env: e, agg: p.probe.env} }
		}
		w, err := r.wl.newWorker(r.seed*1000+10+int64(i), wrap)
		if err != nil || tr == nil {
			return w, err
		}
		return tracedWorker{w: w, tr: tr, env: p.probe.env, selfNs: &p.probe.selfNs,
			transitions: &p.probe.transitions, insertBytes: &p.probe.insertB}, nil
	}
	return distexec.NewApex(distexec.ApexConfig{
		NumWorkers:      1,
		TaskSize:        taskSize,
		NumReplayShards: 2,
		ReplayCapacity:  replayCapacity,
		BatchSize:       batchSize,
	}, learner, pongEnv(r.seed).StateSpace(), factory)
}

// round builds a learner and an executor (timed as set-up), runs it for d,
// checks its result and returns its frames per second.
func (p *apexPhase) round(k int, d time.Duration, tr *tracer) (float64, error) {
	r := p.r
	if tr != nil && p.probe.env == nil {
		p.probe.env = tr.agg("envs.step")
	}
	var (
		learner *agents.DQN
		ex      *distexec.ApexExecutor
	)
	err := r.timeSetup(p.name(), func() error {
		var err error
		if learner, err = r.wl.newAgent(r.seed*1000+1, nil); err != nil {
			return err
		}
		ex, err = p.newApex(learner, tr)
		return err
	})
	if err != nil {
		return 0, err
	}
	res, runErr := ex.Run(distexec.RunOptions{Duration: d})

	// Output checks.
	if runErr != nil {
		r.fail("apex-pong round %d: run returned %v", k, runErr)
	}
	if res.Updates <= 0 {
		r.fail("apex-pong round %d: no learner updates", k)
	}
	if learner.Updates() != res.Updates {
		r.fail("apex-pong round %d: learner.Updates()=%d but ApexResult.Updates=%d", k, learner.Updates(), res.Updates)
	}
	if !weightsFinite(learner.GetWeights()) {
		r.fail("apex-pong round %d: learner weights are not finite", k)
	}

	r.count(res.ActorCalls, res.FailedCalls+res.TimedOutCalls)
	fps := float64(res.Frames) / res.Elapsed.Seconds()
	p.fps = append(p.fps, fps)
	p.ups = append(p.ups, float64(res.Updates)/res.Elapsed.Seconds())
	if tr != nil {
		p.actors.add(ex.Cluster())
		p.graph.add(session(learner))
		p.sum.Updates += res.Updates
		p.sum.ActorCalls += res.ActorCalls
		p.sum.FailedCalls += res.FailedCalls
		p.sum.TimedOutCalls += res.TimedOutCalls
		p.sum.Restarts += res.Restarts
	}
	r.note("apex-pong round %d: %d frames, %d updates in %.2fs", k, res.Frames, res.Updates, res.Elapsed.Seconds())
	return fps, nil
}

func (p *apexPhase) finish(tr *tracer) {
	r := p.r
	r.set("apex-pong.frames_per_s", median(p.fps))
	r.set("apex-pong.updates_per_s", median(p.ups))
	if tr == nil {
		return
	}
	s := p.sum
	r.set("apex-pong.failed_share", ratio(float64(s.FailedCalls+s.TimedOutCalls), float64(s.ActorCalls)))
	r.set("envs.step_calls", float64(p.probe.env.count.Load()))
	r.set("envs.step_busy_s", float64(p.probe.env.busyNs.Load())/1e9)
	r.set("execution.sample_calls", float64(len(tr.durations("execution.sample"))))
	r.set("execution.sample_ms_p50", median(tr.durations("execution.sample")))
	r.set("execution.sample_self_busy_s", float64(p.probe.selfNs.Load())/1e9)
	r.set("execution.set_weights_ms_p50", median(tr.durations("execution.set_weights")))
	r.set("memories.replay_ratio", ratio(float64(s.Updates*batchSize), float64(p.probe.transitions.Load())))
	r.set("raysim.insert_bytes", float64(p.probe.insertB.Load()))
	a := p.actors
	r.set("raysim.replay_queue_wait_ms_avg", ratio(ms(a.replayWait), float64(a.replayCalls)))
	r.set("raysim.replay_queue_wait_ms_max", ms(a.replayMax))
	r.set("raysim.replay_mailbox_hwm", float64(a.replayHWM))
	r.set("raysim.worker_queue_wait_ms_avg", ratio(ms(a.workerWait), float64(a.workerCalls)))
	r.set("raysim.blocked_sends", float64(a.blocked))
	r.set("distexec.actor_calls", float64(s.ActorCalls))
	r.set("distexec.failed_calls", float64(s.FailedCalls))
	r.set("distexec.timed_out_calls", float64(s.TimedOutCalls))
	r.set("distexec.restarts", float64(s.Restarts))
	r.set("graph.learner.nodes_per_run", p.graph.nodesPerRun())
	r.set("graph.learner.arena_hit_rate", p.graph.hitRate())
	r.set("graph.learner.compiled_plans", float64(p.graph.plans))
}

// actorTotals sums the raysim mailbox metrics of the replay shards and the
// worker over the phase's executors.
type actorTotals struct {
	replayWait, replayMax, workerWait time.Duration
	replayCalls, workerCalls, blocked int64
	replayHWM                         int
}

func (a *actorTotals) add(c *raysim.Cluster) {
	for name, m := range c.ActorMetricsSnapshot() {
		a.blocked += m.BlockedSends
		switch {
		case strings.HasPrefix(name, "replay-"):
			a.replayWait += m.QueueWaitTotal
			a.replayCalls += m.CallsProcessed
			a.replayMax = max(a.replayMax, m.QueueWaitMax)
			a.replayHWM = max(a.replayHWM, m.MailboxHWM)
		case strings.HasPrefix(name, "worker-"):
			a.workerWait += m.QueueWaitTotal
			a.workerCalls += m.CallsProcessed
		}
	}
}
