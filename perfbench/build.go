package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rlgraph/internal/agents"
	"rlgraph/internal/components/nn"
	"rlgraph/internal/components/optimizers"
	"rlgraph/internal/envs"
	"rlgraph/internal/exec"
	"rlgraph/internal/execution"
	"rlgraph/internal/graph"
	"rlgraph/internal/tensor"
)

// workload fixes everything a run varies besides the seed: the width of the
// dueling-DQN every phase builds, and the serving rates. Those are set per
// width from sweeps of the 2-replica fleet (2-vCPU Xeon VM), so that each
// sits in the same regime on both widths:
//
//   - low: the idle batcher's wake-up sets latency (mean batch about 1, p50
//     above its floor);
//   - mid: p50 at its floor, batches barely forming (mean batch 1.05-1.8);
//   - high: batches form (mean batch above 1) while p50 stays steady from
//     run to run.
//
// The sweeps put capacity (p99 at ladderSLO) near 94k rps for width 64 and
// 13k-17k rps for width 256. Width 64's high is 0.43 of its capacity (mean
// batch about 8). Width 256's is about 0.3 (mean batch 1.1-1.5): above
// that its p50 follows the host's speed, 0.52-1.0 ms over ten runs at 5k
// rps (IQR/median 0.31), wider than any bound the benchmark may set.
// BENCHMARK.json records why each workload was chosen.
type workload struct {
	name string
	// width is the size of both dense trunk layers and of the dueling
	// streams.
	width int
	// low, mid and high are the fixed open-loop rates (requests/s); the
	// ladder climbs from high.
	low, mid, high float64
}

var workloads = []workload{
	{name: "dueling64", width: 64, low: 2000, mid: 10000, high: 40000},
	{name: "dueling256", width: 256, low: 1000, mid: 3000, high: 4000},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// Fixed shape of every phase (see BENCHMARK.json and metrics.json).
const (
	batchSize      = 64 // learner batch on apex-pong and learner-split
	replayCapacity = 20000
	// agentMemory sizes each agent's own replay component, which no
	// measured path uses: Ape-X learners update from external batches and
	// workers and replicas only act.
	agentMemory   = 1024
	envsPerWorker = 4 // feature-mode PongSim envs per Ape-X worker
	frameSkip     = 4
	nStep         = 3
	taskSize      = 50 // act/step iterations per worker sample task
	replicas      = 2
	serveMaxBatch = 64
	serveFlush    = 200 * time.Microsecond
	// serveQueue is each replica's admission queue. The generator dispatches
	// evenly spaced requests in bursts of up to a few milliseconds' worth
	// (timer granularity), and this depth absorbs them without shedding.
	serveQueue     = 1024
	requestTimeout = 50 * time.Millisecond // per-request deadline after its due time
	// ladderSLO is the p99 limit of max_rps_at_slo: half the request
	// deadline, so the ladder finds the rate where queues start to grow.
	ladderSLO     = requestTimeout / 2
	swapEvery     = 200 * time.Millisecond
	swapSnapshots = 10 // distinct perturbed snapshots the serve-swap writer cycles through
)

// pongEnv is the feature-mode Pong every phase steps or draws inputs from.
func pongEnv(seed int64) envs.Env {
	return envs.NewPongSim(envs.PongConfig{
		Obs: envs.PongFeatures, FrameSkip: frameSkip, OpponentSkill: 0.55, Seed: seed,
	})
}

// dqnConfig is the dueling double DQN with prioritized replay and n-step
// targets used by the Ape-X experiments, at the workload's width.
func (w workload) dqnConfig(seed int64) agents.DQNConfig {
	return agents.DQNConfig{
		Backend: "static",
		Network: []nn.LayerSpec{
			{Type: "dense", Units: w.width, Activation: "relu"},
			{Type: "dense", Units: w.width, Activation: "relu"},
		},
		Dueling:       true,
		DuelingHidden: w.width,
		DoubleQ:       true,
		Huber:         true,
		Gamma:         0.99,
		NStep:         nStep,
		Memory:        agents.MemoryConfig{Type: "prioritized", Capacity: agentMemory},
		Optimizer:     optimizers.Config{Type: "adam", LearningRate: 1e-4},
		Exploration:   agents.ExplorationConfig{Initial: 1, Final: 0.02, DecaySteps: 20000},
		BatchSize:     batchSize,
		Seed:          seed,
	}
}

// newAgent builds a DQN for feature Pong. devices, when non-nil, places
// components before the build.
func (w workload) newAgent(seed int64, devices exec.DeviceMap) (*agents.DQN, error) {
	env := pongEnv(seed)
	a, err := agents.NewDQN(w.dqnConfig(seed), env.StateSpace(), env.ActionSpace())
	if err != nil {
		return nil, err
	}
	if devices != nil {
		devices.Apply(a.Root())
	}
	if _, err := a.Build(); err != nil {
		return nil, err
	}
	return a, nil
}

// newWorker builds an Ape-X sample worker: its own agent and a sequential
// vector of feature-Pong envs. wrap, when non-nil, wraps each env (tracing).
func (w workload) newWorker(seed int64, wrap func(envs.Env) envs.Env) (*execution.Worker, error) {
	agent, err := w.newAgent(seed, nil)
	if err != nil {
		return nil, err
	}
	es := make([]envs.Env, envsPerWorker)
	for k := range es {
		es[k] = pongEnv(seed*10 + int64(k))
		if wrap != nil {
			es[k] = wrap(es[k])
		}
	}
	return execution.NewWorker(agent, envs.NewVectorEnv(es...), execution.WorkerConfig{
		NStep: nStep, Gamma: 0.99, ComputePriorities: true, FramesPerStep: frameSkip,
		EnvParallelism: 1,
	}), nil
}

// observations draws n feature-Pong observations from seeded random play:
// the request inputs of the serving phases.
func observations(seed int64, n int) []*tensor.Tensor {
	env := pongEnv(seed)
	rng := rand.New(rand.NewSource(seed))
	obs := env.Reset()
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = obs.Clone()
		var done bool
		obs, _, done = env.Step(rng.Intn(env.ActionSpace().N))
		if done {
			obs = env.Reset()
		}
	}
	return out
}

// perturbed returns a copy of w with seeded Gaussian noise added: the
// weight snapshots the serve-swap writer pushes.
func perturbed(w map[string]*tensor.Tensor, seed int64, scale float64) map[string]*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]*tensor.Tensor, len(w))
	for _, k := range sortedKeys(w) {
		t := w[k].Clone()
		d := t.Data()
		for i := range d {
			d[i] += scale * rng.NormFloat64()
		}
		out[k] = t
	}
	return out
}

// weightsFinite reports whether every weight is a finite number.
func weightsFinite(w map[string]*tensor.Tensor) bool {
	for _, t := range w {
		for _, v := range t.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return len(w) > 0
}

// session returns an agent's graph session (nil off the static backend).
func session(a *agents.DQN) *graph.Session {
	if se, ok := a.Executor().(*exec.StaticExecutor); ok {
		return se.Session()
	}
	return nil
}

// sessionStats are the graph-layer counters of one or more sessions.
type sessionStats struct {
	runs, nodes, plans int
	gets, hits         int64
}

func (s *sessionStats) add(sessions ...*graph.Session) {
	for _, sess := range sessions {
		if sess == nil {
			continue
		}
		s.runs += sess.RunCount()
		s.nodes += sess.NodesEvaluated()
		s.plans += sess.CompiledPlans()
		g, h := sess.ArenaStats()
		s.gets += g
		s.hits += h
	}
}

func (s sessionStats) nodesPerRun() float64 { return ratio(float64(s.nodes), float64(s.runs)) }
func (s sessionStats) hitRate() float64     { return ratio(float64(s.hits), float64(s.gets)) }
