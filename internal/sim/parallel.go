package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// canceledErr wraps the context's cancellation cause so callers can test
// with errors.Is against context.Canceled / context.DeadlineExceeded.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("sim: campaign canceled: %w", context.Cause(ctx))
}

// ctxDone returns the context's done channel (nil when ctx is nil or not
// cancellable, making the per-trial select check free).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// EstimateFPParallel estimates the mapping's failure probability by
// sampling crash patterns directly (each processor fails independently
// with its fp_u; no event simulation — RunInjected exercises the full
// simulator on any specific pattern). It fans the trials out over
// `workers` goroutines (0 = GOMAXPROCS). Each
// worker samples with an independent RNG deterministically derived from
// seed, so the result is reproducible for a fixed (trials, workers, seed)
// triple regardless of scheduling.
//
// Cancelling ctx stops the campaign early: the estimate is then computed
// over the trials actually performed (FPEstimate.Trials reports how many)
// and returned together with an error wrapping the context's cause.
func EstimateFPParallel(ctx context.Context, pl *platform.Platform, m *mapping.Mapping, trials, workers int, seed int64) (FPEstimate, error) {
	if trials <= 0 {
		return FPEstimate{}, fmt.Errorf("sim: trials must be > 0")
	}
	if err := m.Validate(maxStage(m)+1, pl.NumProcs()); err != nil {
		return FPEstimate{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	done := ctxDone(ctx)
	var canceled atomic.Bool

	counts := make([]int, workers)
	performed := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		// Split trials as evenly as possible; the first `trials%workers`
		// workers take one extra.
		share := trials / workers
		if w < trials%workers {
			share++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// splitmix-style stream separation keeps the per-worker
			// sequences independent for nearby seeds.
			rng := rand.New(rand.NewSource(seed ^ (int64(w)+1)*0x5851F42D4C957F2D))
			failed := make([]bool, pl.NumProcs())
			local := 0
			t := 0
			for ; t < share; t++ {
				if done != nil && t&255 == 0 && canceled.Load() {
					break
				}
				for u := range failed {
					failed[u] = rng.Float64() < pl.FailProb[u]
				}
				if !SurvivesFailures(m, failed) {
					local++
				}
			}
			counts[w] = local
			performed[w] = t
		}()
	}
	if done != nil {
		stop := make(chan struct{})
		go func() {
			select {
			case <-done:
				canceled.Store(true)
			case <-stop:
			}
		}()
		wg.Wait()
		close(stop)
	} else {
		wg.Wait()
	}

	failures, did := 0, 0
	for w := range counts {
		failures += counts[w]
		did += performed[w]
	}
	if canceled.Load() {
		est := FPEstimate{Trials: did}
		if did > 0 {
			p := float64(failures) / float64(did)
			est.FP = p
			est.StdErr = math.Sqrt(p * (1 - p) / float64(did))
		}
		return est, canceledErr(ctx)
	}
	p := float64(failures) / float64(trials)
	return FPEstimate{
		FP:     p,
		StdErr: math.Sqrt(p * (1 - p) / float64(trials)),
		Trials: trials,
	}, nil
}

// MonteCarloLatencyParallel runs `trials` independent Monte-Carlo
// simulations across `workers` goroutines and aggregates: the empirical
// failure rate, the mean and maximum latency of completed runs, and the
// number of completions. Deterministic for fixed (trials, workers, seed).
//
// Cancelling ctx stops the campaign early: the summary then aggregates
// the trials actually executed (MCSummary.Trials reports how many) and is
// returned together with an error wrapping the context's cause.
func MonteCarloLatencyParallel(ctx context.Context, p *pipeline.Pipeline, pl *platform.Platform, m *mapping.Mapping, cfg Config, trials, workers int, seed int64) (MCSummary, error) {
	if trials <= 0 {
		return MCSummary{}, fmt.Errorf("sim: trials must be > 0")
	}
	if err := m.Validate(p.NumStages(), pl.NumProcs()); err != nil {
		return MCSummary{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	done := ctxDone(ctx)
	var canceled atomic.Bool
	type partial struct {
		failures  int
		completed int
		sumLat    float64
		maxLat    float64
	}
	parts := make([]partial, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		share := trials / workers
		if w < trials%workers {
			share++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := cfg
			local.Mode = MonteCarlo
			local.RNG = rand.New(rand.NewSource(seed ^ (int64(w)+1)*0x5851F42D4C957F2D))
			for t := 0; t < share; t++ {
				if done != nil && canceled.Load() {
					return
				}
				res, err := Run(p, pl, m, local)
				if err != nil {
					errs[w] = err
					return
				}
				if !res.Completed {
					parts[w].failures++
					continue
				}
				parts[w].completed++
				parts[w].sumLat += res.MaxLatency
				if res.MaxLatency > parts[w].maxLat {
					parts[w].maxLat = res.MaxLatency
				}
			}
		}()
	}
	if done != nil {
		stop := make(chan struct{})
		go func() {
			select {
			case <-done:
				canceled.Store(true)
			case <-stop:
			}
		}()
		wg.Wait()
		close(stop)
	} else {
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return MCSummary{}, err
		}
	}
	var sum MCSummary
	var totLat float64
	for _, pt := range parts {
		sum.Failures += pt.failures
		sum.Completed += pt.completed
		totLat += pt.sumLat
		if pt.maxLat > sum.MaxLatency {
			sum.MaxLatency = pt.maxLat
		}
	}
	sum.Trials = sum.Failures + sum.Completed
	if !canceled.Load() {
		sum.Trials = trials
	}
	if sum.Completed > 0 {
		sum.MeanLatency = totLat / float64(sum.Completed)
	}
	if sum.Trials > 0 {
		sum.FailureRate = float64(sum.Failures) / float64(sum.Trials)
	}
	if canceled.Load() {
		return sum, canceledErr(ctx)
	}
	return sum, nil
}

// MCSummary aggregates a parallel Monte-Carlo campaign.
type MCSummary struct {
	Trials      int
	Failures    int
	Completed   int
	FailureRate float64
	MeanLatency float64
	MaxLatency  float64
}
