package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/serve"
)

// server is a fresh pipeserve service (default Config) on a loopback
// listener, with a keep-alive client sized for the load generator.
type server struct {
	ts     *httptest.Server
	client *http.Client
}

func startServer(clients int) *server {
	return &server{
		ts:     httptest.NewServer(serve.New(serve.Config{})),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
	}
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

func (s *server) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := s.client.Get(s.ts.URL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// outcome is what came back for one request.
type outcome struct {
	idx int
	// done is when the answer was complete, since the loop started.
	done time.Duration
	// latency runs from the send to the fully decoded response (streams:
	// to the terminal record).
	latency time.Duration
	// gaps are a stream's per-event-record arrival gaps: from the previous
	// record's arrival (or the send) to this record's arrival.
	gaps    []time.Duration
	status  int
	err     error
	solve   serve.SolveResult
	records []serve.RemapEvent
}

func (s *server) send(path string, body []byte) outcome {
	start := time.Now()
	resp, err := s.client.Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	o := outcome{status: resp.StatusCode}
	if path == solvePath || resp.StatusCode != http.StatusOK {
		o.err = json.NewDecoder(resp.Body).Decode(&o.solve)
		o.latency = time.Since(start)
		return o
	}
	dec := json.NewDecoder(resp.Body)
	prev := start
	for {
		var ev serve.RemapEvent
		if err := dec.Decode(&ev); err != nil {
			if err != io.EOF {
				o.err = err
			}
			break
		}
		now := time.Now()
		if !ev.Done {
			o.gaps = append(o.gaps, now.Sub(prev))
		}
		prev = now
		o.records = append(o.records, ev)
	}
	o.latency = time.Since(start)
	return o
}

// drive runs a closed loop: each of clients goroutines generates its next
// request (path and body), sends it and waits for the whole answer before
// taking the next index. It sends exactly n requests when n > 0, else
// keeps going until the deadline. Generation happens before a request's
// clock starts. The outcomes come back in index order together with the
// loop's wall time.
func drive(s *server, clients, n int, until time.Time, gen func(i int) (string, []byte)) ([]outcome, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for {
				i := int(next.Add(1) - 1)
				if (n > 0 && i >= n) || (n <= 0 && !time.Now().Before(until)) {
					break
				}
				o := s.send(gen(i))
				o.idx = i
				o.done = time.Since(start)
				mine = append(mine, o)
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(outs, func(a, b int) bool { return outs[a].idx < outs[b].idx })
	return outs, wall
}

// throughput is the median number of answers completed per whole second
// of the loop, so that a few seconds of interference from other work on
// the machine do not move it; runs shorter than two seconds fall back to
// answers over wall time.
func throughput(outs []outcome, wall time.Duration) float64 {
	windows := int(wall / time.Second)
	if windows < 2 {
		return float64(len(outs)) / wall.Seconds()
	}
	counts := make([]float64, windows)
	for _, o := range outs {
		if k := int(o.done / time.Second); k < windows {
			counts[k]++
		}
	}
	return quantile(counts, 0.5)
}

// setup starts a fresh server and sends the pre-warm and warm-up requests,
// which were generated beforehand so set-up time excludes generation. It
// returns the server, its set-up time, and the set-up requests with their
// outcomes for checking.
func setup(w *workload, t traffic, clients int) (*server, time.Duration, []request, []outcome) {
	reqs := make([]request, t.nPrewarm+w.warmup)
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		if i < t.nPrewarm {
			reqs[i] = t.prewarm(i)
		} else {
			reqs[i] = t.at(warmupStream, i-t.nPrewarm)
		}
		bodies[i] = reqs[i].body()
	}
	start := time.Now()
	s := startServer(clients)
	outs, _ := drive(s, clients, len(reqs), time.Time{}, func(i int) (string, []byte) { return reqs[i].path, bodies[i] })
	return s, time.Since(start), reqs, outs
}

// runtimeSample reads the runtime counters the end-to-end run reports.
type runtimeSample struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	num := func(i int) float64 {
		v := samples[i].Value
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		panic(fmt.Sprintf("runtime metric %s unsupported by this Go version", samples[i].Name))
	}
	return runtimeSample{num(0), num(1), num(2), num(3)}
}

// allocBytes reads the cumulative heap allocation counter alone.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// heapLiveBytes collects garbage and returns the heap marked live. The
// second cycle frees what the first only moved to sync.Pool victim caches.
func heapLiveBytes() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
