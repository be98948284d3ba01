package main

import (
	"sync"
	"sync/atomic"
	"time"

	"rlgraph/internal/fleet"
	"rlgraph/internal/tensor"
)

// reqRec is one request's record, written only by the client that served it.
type reqRec struct {
	lat  int64 // ns from due time to response
	done int64 // ns since the step started, at response
	late int64 // ns from due time to dispatch
	ver  int64 // weight-version stamp
	ok   bool
}

// checkEvery samples one response in this many for the output checks.
const checkEvery = 37

// sampled is one response kept for the output checks.
type sampled struct {
	obs    int
	action float64
	ver    int64
}

// stepResult summarizes one open-loop step.
type stepResult struct {
	sent, ok, notOK int64
	lat             []float64 // ms from due time, in due order; a failure counts as its deadline
	p50, p99        float64   // ms from due time; a failure counts as its deadline
	lateP99         float64   // ms
	lateShare       float64   // share of requests dispatched over behindLimit late
	inflightMax     int64
	recs            []reqRec
	samples         []sampled
	start           time.Time
}

// valid reports whether the generator kept to its schedule. A step in
// which more than 5% of requests were dispatched over behindLimit late was
// not offered the rate it names, and is not scored. The limit sits above
// the few milliseconds a parked thread can wait for a host timer tick.
func (s stepResult) valid() bool { return s.lateShare <= 0.05 }

const behindLimit = 10 * time.Millisecond

// openLoop sends rate requests/s to rt for dur, evenly spaced, from one
// dispatcher and a pool of client goroutines, timing each request from its
// due time. obs are the generated inputs, used round-robin from offset.
// p99s are taken over windows of window requests (see windowedQuantile).
func openLoop(rt *fleet.Router, obs []*tensor.Tensor, offset int, rate float64, dur time.Duration, window int, tr *tracer) stepResult {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	interval := float64(time.Second) / rate
	res := stepResult{recs: make([]reqRec, n)}
	samples := make([]sampled, (n+checkEvery-1)/checkEvery)
	// The job queue holds every request of the step, so the dispatcher
	// never blocks on it.
	jobs := make(chan int, n)
	var inflight, inflightMax atomic.Int64

	// Enough clients that requests below the knee rarely wait for one; a
	// wait counts in the request's latency.
	const clients = 2048
	var wg sync.WaitGroup
	start := time.Now()
	res.start = start
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				due := start.Add(time.Duration(float64(i) * interval))
				sent := time.Now()
				var id int64
				if tr != nil {
					id = tr.id()
				}
				o := obs[(offset+i)%len(obs)]
				out, ver, err := rt.ActVersion(o, due.Add(requestTimeout))
				end := time.Now()
				if tr != nil {
					tr.record("fleet.act", id, 0, int64(offset+i), sent, end)
				}
				inflight.Add(-1)
				r := &res.recs[i]
				r.done = int64(end.Sub(start))
				r.lat = int64(end.Sub(due))
				r.ver = ver
				r.ok = err == nil
				if r.ok {
					if i%checkEvery == 0 {
						samples[i/checkEvery] = sampled{obs: (offset + i) % len(obs), action: out.Data()[0], ver: ver}
					}
				} else if i%checkEvery == 0 {
					samples[i/checkEvery] = sampled{obs: -1}
				}
			}
		}()
	}
	for i := 0; i < n; {
		now := time.Since(start)
		due := time.Duration(float64(i) * interval)
		if due > now {
			time.Sleep(due - now)
			continue
		}
		for ; i < n && time.Duration(float64(i)*interval) <= now; i++ {
			if v := inflight.Add(1); v > inflightMax.Load() {
				inflightMax.Store(v)
			}
			res.recs[i].late = int64(now - time.Duration(float64(i)*interval))
			jobs <- i
		}
	}
	close(jobs)
	wg.Wait()

	res.sent = int64(n)
	res.inflightMax = inflightMax.Load()
	lat := make([]float64, n)
	late := make([]float64, n)
	behind := 0
	for i, r := range res.recs {
		late[i] = float64(r.late) / 1e6
		if r.late > int64(behindLimit) {
			behind++
		}
		if r.ok {
			res.ok++
			lat[i] = float64(r.lat) / 1e6
		} else {
			res.notOK++
			lat[i] = ms(requestTimeout)
		}
	}
	res.lat = lat
	res.p50 = quantile(lat, 0.5)
	res.p99 = tailP99(lat, res.notOK, window)
	res.lateP99 = quantile(late, 0.99)
	res.lateShare = float64(behind) / float64(n)
	for _, s := range samples {
		if s.obs >= 0 {
			res.samples = append(res.samples, s)
		}
	}
	return res
}

// p99Window is the number of consecutive requests each p99 of a fixed-rate
// step is taken over (20 lie beyond it); ladderWindow the same for a ladder
// rung (10 beyond), which holds at least one window.
const (
	p99Window    = 2000
	ladderWindow = 1000
)

// lagWindow is the number of consecutive swaps each swap-lag p90 is taken
// over.
const lagWindow = 25

// windowedQuantile is the median, over consecutive windows of n samples (in
// the order given), of each window's q-quantile. A host stall of a few
// hundred milliseconds then moves one window's tail, not the whole step's.
// Fewer than two windows of samples fall back to the plain quantile.
func windowedQuantile(xs []float64, q float64, n int) float64 {
	if len(xs) < 2*n {
		return quantile(xs, q)
	}
	var qs []float64
	for lo := 0; lo+n <= len(xs); lo += n {
		qs = append(qs, quantile(xs[lo:lo+n], q))
	}
	return median(qs)
}

// tailP99 is the windowed p99 of lat (see windowedQuantile), or a miss
// (the request deadline) when over 1% of the requests failed, whichever
// windows the failures fell in.
func tailP99(lat []float64, failed int64, window int) float64 {
	if failed*100 > int64(len(lat)) {
		return ms(requestTimeout)
	}
	return windowedQuantile(lat, 0.99, window)
}
