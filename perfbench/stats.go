package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rlgraph/internal/tensor"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

// median is the middle value of xs, or the mean of the two middle values
// when len(xs) is even; 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 || n%2 == 1 {
		return quantile(xs, 0.5)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sortedKeys(w map[string]*tensor.Tensor) []string {
	keys := make([]string, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// heapSampler tracks the peak of heap object bytes (live and not yet
// swept), read with runtime/metrics every few milliseconds until stop.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// close stops sampling and returns the peak in MB.
func (h *heapSampler) close() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak.Load()) / (1 << 20)
}

// header identifies the revision, machine and inputs of one run.
type header struct {
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
	SourceHash string `json:"source_sha256"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func newHeader(commit, dirty, srcHash, wl string, seed int64, seconds int, trace bool) header {
	return header{
		Commit: commit, Dirty: dirty, SourceHash: srcHash,
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workload: wl, Seed: seed, Seconds: seconds, Trace: trace,
	}
}
