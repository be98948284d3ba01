package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rlgraph/internal/envs"
	"rlgraph/internal/execution"
	"rlgraph/internal/tensor"
)

// tracer records spans around the benchmark's calls into each layer's
// public functions. Spans stay in memory and are written out once, at the
// end of the run. A nil *tracer records nothing: untraced runs install no
// wrappers at all.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
	aggs    map[string]*stepAgg
}

// span is one wrapped call. Parent is the id of the enclosing span (0 at
// the top); Req is the request index on the serving phases (0 elsewhere).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; later spans are counted as
// dropped.
const maxSpans = 2 << 20

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), aggs: map[string]*stepAgg{}}
}

// id allocates a span id before the call, so children can name it.
func (t *tracer) id() int64 { return t.nextID.Add(1) }

func (t *tracer) record(name string, id, parent, req int64, start, end time.Time) {
	s := span{Name: name, ID: id, Parent: parent, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// durations returns the durations (ms) of every span with this name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// busy returns the summed duration (s) of every span with this name.
func (t *tracer) busy(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum / 1e3
}

// agg returns the named per-step aggregate, creating it on first use.
func (t *tracer) agg(name string) *stepAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[name]
	if a == nil {
		a = &stepAgg{}
		t.aggs[name] = a
	}
	return a
}

// write dumps spans and aggregates as JSON lines under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	for name, a := range t.aggs {
		if err := enc.Encode(map[string]interface{}{
			"aggregate": name, "count": a.count.Load(), "busy_ns": a.busyNs.Load(), "log2_us_hist": a.histogram(),
		}); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// stepAgg aggregates calls too frequent for one span each: a count, busy
// time and a log2-microsecond histogram.
type stepAgg struct {
	count  atomic.Int64
	busyNs atomic.Int64
	hist   [24]atomic.Int64
}

func (a *stepAgg) add(d time.Duration) {
	a.count.Add(1)
	a.busyNs.Add(int64(d))
	b := 0
	for us := d.Microseconds(); us > 0 && b < len(a.hist)-1; us >>= 1 {
		b++
	}
	a.hist[b].Add(1)
}

func (a *stepAgg) histogram() []int64 {
	out := make([]int64, len(a.hist))
	for i := range a.hist {
		out[i] = a.hist[i].Load()
	}
	return out
}

// tracedEnv is a transparent envs.Env wrapper that aggregates Step calls.
type tracedEnv struct {
	envs.Env
	agg *stepAgg
}

func (e tracedEnv) Step(action int) (*tensor.Tensor, float64, bool) {
	start := time.Now()
	obs, r, done := e.Env.Step(action)
	e.agg.add(time.Since(start))
	return obs, r, done
}

// tracedWorker wraps an Ape-X sample worker. Each Sample span's self time is
// its duration minus the env steps it encloses: act forward, n-step
// post-processing and priorities. It also tallies the transitions and bytes
// the worker hands to the replay shards.
type tracedWorker struct {
	w   *execution.Worker
	tr  *tracer
	env *stepAgg

	selfNs      *atomic.Int64
	transitions *atomic.Int64
	insertBytes *atomic.Int64
}

func (t tracedWorker) Sample(n int) (*execution.Batch, error) {
	id := t.tr.id()
	envBefore := t.env.busyNs.Load()
	start := time.Now()
	b, err := t.w.Sample(n)
	end := time.Now()
	t.tr.record("execution.sample", id, 0, 0, start, end)
	t.selfNs.Add(int64(end.Sub(start)) - (t.env.busyNs.Load() - envBefore))
	if b != nil && b.Len() > 0 {
		t.transitions.Add(int64(b.Len()))
		elems := b.S.Size() + b.A.Size() + b.R.Size() + b.NS.Size() + b.T.Size()
		if b.Prio != nil {
			elems += b.Prio.Size()
		}
		t.insertBytes.Add(8 * int64(elems))
	}
	return b, err
}

func (t tracedWorker) SetWeights(w map[string]*tensor.Tensor) error {
	id := t.tr.id()
	start := time.Now()
	err := t.w.SetWeights(w)
	t.tr.record("execution.set_weights", id, 0, 0, start, time.Now())
	return err
}

func (t tracedWorker) MeanReward(n int) (float64, bool) { return t.w.MeanReward(n) }

// timed runs fn inside a span named name, child of span parent (0 for
// none), when tr is non-nil.
func timed[T any](tr *tracer, name string, parent int64, fn func() (T, error)) (T, error) {
	if tr == nil {
		return fn()
	}
	id := tr.id()
	start := time.Now()
	v, err := fn()
	tr.record(name, id, parent, 0, start, time.Now())
	return v, err
}
