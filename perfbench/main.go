// Command perfbench is the repository's end-to-end benchmark. One run builds
// the system from the layers' public constructors and drives four phases,
// each the shape of one of the paper's end-to-end figures, in interleaved
// rounds:
//
//   - apex-pong: the closed-loop Ape-X loop (1 worker x 4 feature-Pong envs,
//     2 replay shards, learner batch 64) — frames and updates per second;
//   - learner-split: the Ape-X learner with its graph cut across two devices
//     (partitioned execution over raysim actors) — updates per second;
//   - serve-open: open-loop greedy traffic into a 2-replica fleet at fixed
//     low/mid/high rates, then a rate ladder — latency and max rate at SLO;
//   - serve-swap: the mid rate while a ParameterServer receives a snapshot
//     every 200ms and a Publisher rolls it across the fleet — swap lag.
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it wraps the
// calls it makes into each layer, records spans, and prints the per-layer
// metrics plus the tracing overhead. BENCHMARK.json lists the metrics with
// their units; metrics.json names every metric's layer and the end-to-end
// metric it should move. Usage (from the
// repository root; run.py builds and invokes it):
//
//	python3 perfbench/run.py --workload dueling64 --seed 1 --seconds 55 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricDef is a BENCHMARK.json metric as the program uses it: the name it
// is reported under and its unit. perfbench/metrics.json documents each
// metric's layer, phase and meaning and, for per-layer metrics, the
// end-to-end metric it should move.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// registry is the metric lists of BENCHMARK.json: a run prints the
// end-to-end metrics, a traced run the per-layer ones.
type registry struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// benchmarkFile declares the workloads and metrics; traceDir is where traced
// runs write their spans. Both are relative to the repository root.
const (
	benchmarkFile = "BENCHMARK.json"
	traceDir      = ".bench_build/traces"
)

func readRegistry(path string) (registry, error) {
	var reg registry
	data, err := os.ReadFile(path)
	if err != nil {
		return reg, err
	}
	if err := json.Unmarshal(data, &reg); err != nil {
		return reg, fmt.Errorf("%s: %w", path, err)
	}
	if len(reg.EndToEnd) == 0 || len(reg.PerLayer) == 0 {
		return reg, fmt.Errorf("%s declares no metrics", path)
	}
	return reg, nil
}

// Phase time shares of --seconds.
var phaseShare = map[string]float64{
	"apex-pong": 0.22, "learner-split": 0.13, "serve-open": 0.30, "serve-swap": 0.35,
}

// rounds is how many times a run cycles through the four phases. Each round
// sets every phase up afresh (timed for setup_s) and measures it for a
// quarter of its share, so each phase's figures span the whole run rather
// than one stretch of it: the host's speed drifts over tens of seconds.
const rounds = 4

// phase is one of the four measured scenarios.
type phase interface {
	name() string
	// round sets the phase up and measures it for d, traced when tr is
	// non-nil, and returns the round's headline figure.
	round(k int, d time.Duration, tr *tracer) (float64, error)
	// finish reports the phase's metrics from what its rounds
	// accumulated; tr non-nil for a traced run.
	finish(tr *tracer)
	// lowerBetter says which way the headline figure improves.
	lowerBetter() bool
}

// run holds one benchmark run's measurements and check results.
type run struct {
	wl   workload
	seed int64

	vals              map[string]float64
	failures          []string
	attempted, failed int64
	setupTimes        map[string][]float64

	latenessMax, inflightMax  float64
	invalidSteps, ladderRungs int
}

func (r *run) set(name string, v float64) { r.vals[name] = v }
func (r *run) add(name string, v float64) { r.vals[name] += v }

func (r *run) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// fail records a failed output check; the run reports correct=false.
func (r *run) fail(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Println("CHECK FAILED:", msg)
}

func (r *run) note(format string, args ...interface{}) {
	fmt.Printf("# "+format+"\n", args...)
}

// loadStats records the generator's lateness and queue depth of a scored
// open-loop step.
func (r *run) loadStats(s stepResult) {
	r.latenessMax = max(r.latenessMax, s.lateP99)
	r.inflightMax = max(r.inflightMax, float64(s.inflightMax))
}

// timeSetup runs one set-up of a phase — construction plus warm-up up to
// the first timed operation — and records how long it took.
func (r *run) timeSetup(phase string, build func() error) error {
	runtime.GC()
	t0 := time.Now()
	if err := build(); err != nil {
		return fmt.Errorf("%s: setup: %w", phase, err)
	}
	r.setupTimes[phase] = append(r.setupTimes[phase], time.Since(t0).Seconds())
	return nil
}

func (r *run) setupSeconds() float64 {
	total := 0.0
	for _, ts := range r.setupTimes {
		total += median(ts)
	}
	return total
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		wlName  = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 55, "measured seconds, shared among the phases")
		traceOn = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		commit  = flag.String("commit", "unknown", "revision of the measured tree")
		dirty   = flag.String("dirty", "unknown", "whether the tree had uncommitted changes")
		srcHash = flag.String("source-sha256", "unknown", "hash of the measured sources")
	)
	flag.Parse()
	wl, err := findWorkload(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	reg, err := readRegistry(benchmarkFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	traced := *traceOn == 1

	hdr, _ := json.Marshal(newHeader(*commit, *dirty, *srcHash, wl.name, *seed, *seconds, traced))
	fmt.Printf("# header %s\n", hdr)

	r := &run{wl: wl, seed: *seed, vals: map[string]float64{}, setupTimes: map[string][]float64{}}
	total := time.Duration(*seconds) * time.Second
	phases := []phase{&apexPhase{r: r}, &splitPhase{r: r}, &openPhase{r: r}, &swapPhase{r: r}}
	// A traced run alternates untraced and traced rounds; the headline's
	// relative worsening between them is the tracing overhead.
	var tracers []*tracer // index-aligned with phases when traced
	if traced {
		for range phases {
			tracers = append(tracers, newTracer())
		}
	}
	heads := make([][2][]float64, len(phases)) // [untraced, traced] headlines
	heap := startHeapSampler()
	for k := 0; k < rounds; k++ {
		for i, p := range phases {
			var tr *tracer
			if traced && k%2 == 1 {
				tr = tracers[i]
			}
			d := time.Duration(phaseShare[p.name()] * float64(total) / rounds)
			head, err := p.round(k, d, tr)
			if err != nil {
				heap.close()
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			heads[i][k%2] = append(heads[i][k%2], head)
		}
	}
	for i, p := range phases {
		var tr *tracer
		if traced {
			tr = tracers[i]
			ref, got := median(heads[i][0]), median(heads[i][1])
			over := 1 - ratio(got, ref)
			if p.lowerBetter() {
				over = ratio(got, ref) - 1
			}
			r.set("trace.overhead."+p.name(), over)
		}
		p.finish(tr)
	}
	r.set("heap_peak_mb", heap.close())
	r.set("setup_s", r.setupSeconds())
	r.set("ok_share", 1-ratio(float64(r.failed), float64(r.attempted)))
	r.set("load.lateness_p99_ms", r.latenessMax)
	r.set("load.inflight_max", r.inflightMax)
	r.set("load.invalid_steps", float64(r.invalidSteps))
	r.set("load.ladder_rungs", float64(r.ladderRungs))

	defs := reg.EndToEnd
	if traced {
		defs = reg.PerLayer
		spans := 0
		for i, tr := range tracers {
			spans += len(tr.spans)
			if tr.dropped > 0 {
				r.note("%s: %d spans over the %d-span buffer were dropped", phases[i].name(), tr.dropped, maxSpans)
			}
			path, err := tr.write(traceDir, fmt.Sprintf("%s-%s-seed%d.jsonl", phases[i].name(), wl.name, *seed))
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
				return 1
			}
			r.note("spans of %s written to %s", phases[i].name(), path)
		}
		r.set("trace.spans", float64(spans))
	}

	out := map[string]map[string]interface{}{}
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		fmt.Printf("%-40s %14.6g %s\n", d.Name, v, d.Unit)
		out[d.Name] = map[string]interface{}{"value": v, "unit": d.Unit}
	}
	last, err := json.Marshal(map[string]interface{}{
		"correct": len(r.failures) == 0, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(last))
	return 0
}
